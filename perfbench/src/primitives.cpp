#include "primitives.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "mem/cache.hpp"
#include "mem/diff.hpp"
#include "sim/cothread.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using namespace aecdsm;

/// Keeps the timed results observable so no loop is folded away.
volatile std::uint64_t g_sink = 0;

/// Median nanoseconds per operation over five batches of `run(n)`, with n
/// grown until one batch takes a tenth of `budget_s`.
template <class Run>
double ns_per_op(Run&& run, double budget_s) {
  using clock = std::chrono::steady_clock;
  const auto timed = [&](std::uint64_t n) {
    const auto t0 = clock::now();
    run(n);
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  std::uint64_t n = 1;
  while (timed(n) < budget_s / 10 && n < (std::uint64_t{1} << 32)) n *= 2;
  std::vector<double> per_op;
  for (int i = 0; i < 5; ++i) per_op.push_back(timed(n) / static_cast<double>(n) * 1e9);
  std::sort(per_op.begin(), per_op.end());
  return per_op[2];
}

/// Event chains that each reschedule themselves, one per simulated node,
/// so the heap holds as many pending events as a run has nodes.
struct ChainState {
  sim::Engine* engine;
  std::uint64_t left;
};

struct Chain {
  ChainState* state;
  Cycles step;
  void operator()() const {
    if (state->left == 0) return;
    --state->left;
    state->engine->schedule(state->engine->now() + step, *this);
  }
};

void dispatch(std::uint64_t n, int nodes) {
  sim::Engine engine;
  ChainState state{&engine, n};
  for (int p = 0; p < nodes; ++p) {
    engine.schedule(static_cast<Cycles>(p), Chain{&state, 97 + static_cast<Cycles>(p)});
  }
  engine.run();
}

}  // namespace

PrimitiveTimes time_primitives(const SystemParams& params, double mean_diff_bytes,
                               double budget_s) {
  const double each = budget_s / 6;
  PrimitiveTimes out;

  {
    sim::CoThread* self = nullptr;
    sim::CoThread co([&self] {
      for (;;) self->yield_to_engine();
    });
    self = &co;
    out.switch_ns = ns_per_op(
        [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) co.resume();
        },
        each);
  }

  out.event_ns = ns_per_op([&](std::uint64_t n) { dispatch(n, params.num_procs); }, each);

  // One contiguous run of the workload's mean diff size (8 bytes of run
  // header, then words), centred in the page.
  const std::size_t words = params.page_bytes / kWordBytes;
  const double run_words = std::round((mean_diff_bytes - 8.0) / kWordBytes);
  const std::size_t k = std::clamp<std::size_t>(
      run_words > 1.0 ? static_cast<std::size_t>(run_words) : 1, 1, words);
  std::vector<Word> twin(words);
  for (std::size_t i = 0; i < words; ++i) twin[i] = static_cast<Word>(i * 2654435761u);
  const auto modified = [&](std::size_t offset) {
    std::vector<Word> page = twin;
    for (std::size_t i = offset; i < std::min(offset + k, words); ++i) page[i] ^= 0x5a5a5a5au;
    return page;
  };
  const std::size_t offset = (words - k) / 2;
  const std::vector<Word> current = modified(offset);
  const std::vector<Word> earlier = modified(offset - std::min(offset, k / 2));

  out.diff_create_ns = ns_per_op(
      [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          g_sink = g_sink + mem::Diff::create(twin, current).changed_words();
        }
      },
      each);

  const mem::Diff newer = mem::Diff::create(twin, current);
  const mem::Diff older = mem::Diff::create(twin, earlier);
  std::vector<Word> page = twin;
  out.diff_apply_ns = ns_per_op(
      [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) newer.apply_to(page);
        g_sink = g_sink + page[offset];
      },
      each);

  out.diff_merge_ns = ns_per_op(
      [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          g_sink = g_sink + mem::Diff::merge(older, newer).changed_words();
        }
      },
      each);

  mem::CacheModel cache(params);
  const std::size_t pages = std::max<std::size_t>(1, 2 * params.cache_bytes / params.page_bytes);
  out.cache_invalidate_ns = ns_per_op(
      [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          cache.invalidate_page(static_cast<PageId>(i % pages), params.page_bytes);
        }
        g_sink = g_sink + cache.misses();
      },
      each);
  return out;
}

}  // namespace perfbench
