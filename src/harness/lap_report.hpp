// Table 3 support: collect per-lock LAP scores from a finished run and
// aggregate them into the paper's logical variable groups.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "harness/format.hpp"
#include "harness/runner.hpp"

namespace aecdsm::harness {

/// Per-lock LAP scores of a finished run (works for AEC and the
/// scoring-only TreadMarks instances alike).
std::map<LockId, policy::LapScores> lap_scores_of(const ExperimentResult& r);

/// Aggregate per-lock scores into the paper's variable groups, producing
/// Table 3 rows (group totals are event-weighted, like the paper).
std::vector<LapRow> lap_rows(const std::map<LockId, policy::LapScores>& scores,
                             const std::vector<apps::LockGroup>& groups);

/// Event-weighted total of the full-LAP predictor across every lock of a
/// run — the single success-rate number the sweep benches report.
policy::PredictorScore total_lap_score(const ExperimentResult& r);

}  // namespace aecdsm::harness
