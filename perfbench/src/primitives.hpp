// Layer primitives timed in isolation through their public interfaces,
// with inputs shaped by the workload: the cothread handoff, engine
// dispatch, diff create/apply/merge at the workload's page size and mean
// diff size, and the cache model's page invalidation.
#pragma once

#include "common/params.hpp"

namespace perfbench {

struct PrimitiveTimes {
  double switch_ns = 0.0;            ///< one CoThread resume + yield round trip
  double event_ns = 0.0;             ///< one Engine schedule + dispatch
  double diff_create_ns = 0.0;       ///< one Diff::create over a page
  double diff_apply_ns = 0.0;        ///< one Diff::apply_to
  double diff_merge_ns = 0.0;        ///< one Diff::merge of overlapping diffs
  double cache_invalidate_ns = 0.0;  ///< one CacheModel::invalidate_page
};

/// Time every primitive for about `budget_s` seconds in total. `params`
/// gives the page, cache and node counts; `mean_diff_bytes` is the
/// workload's diff_bytes / diffs_created (encoded size, run headers
/// included).
PrimitiveTimes time_primitives(const aecdsm::SystemParams& params,
                               double mean_diff_bytes, double budget_s);

}  // namespace perfbench
