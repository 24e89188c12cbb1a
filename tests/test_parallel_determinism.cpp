// Cell-level parallelism (--jobs) is the simulator's only host concurrency:
// BatchRunner runs independent cells on worker threads, and each cell's
// simulated processors run as fibers on the worker thread that owns the
// cell. The contract is byte-identity: a cell simulated on a worker thread,
// while other workers simulate their own cells, must be indistinguishable
// from the same cell run alone on the calling thread — RunStats to the last
// field, LAP scores, event counts. This suite sweeps {2, 4, 8} concurrent
// workers across every registered policy preset, every registered app, and
// fault-plane configurations exercising both transport paths.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "harness/batch.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"
#include "policy/policy.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

constexpr int kThreadSweep[] = {2, 4, 8};

/// Full serialization of everything a cell produces: RunStats (every field,
/// via the canonical JSON encoder) plus the per-lock LAP scores.
std::string fingerprint(const harness::ExperimentResult& r) {
  std::ostringstream os;
  os << harness::to_json(r.stats).dump();
  for (const auto& [lock, s] : r.lap_scores) {
    os << "|" << lock << ":" << s.acquire_events << "," << s.lap.predictions
       << "," << s.lap.hits << "," << s.waitq.hits << ","
       << s.waitq_affinity.hits << "," << s.waitq_virtualq.hits;
  }
  return os.str();
}

/// Simulate `copies` copies of one cell at once, one per worker thread,
/// with the cell cache off so every copy really runs.
std::vector<harness::ExperimentResult> run_concurrently(
    const std::string& protocol, const std::string& app,
    const SystemParams& params, std::uint64_t seed, int copies, int jobs) {
  harness::ExperimentPlan plan;
  plan.name = "parallel_determinism";
  for (int i = 0; i < copies; ++i) {
    plan.add(protocol, app, apps::Scale::kSmall, params, seed);
  }
  harness::BatchOptions opts;
  opts.jobs = jobs;
  opts.no_cache = true;
  harness::BatchRunner runner(opts);
  return runner.run(plan);
}

void expect_parallel_matches_sequential(const std::string& protocol,
                                        const std::string& app,
                                        const SystemParams& params,
                                        std::uint64_t seed) {
  const auto seq = harness::run_experiment(protocol, app, apps::Scale::kSmall,
                                           params, seed);
  ASSERT_TRUE(seq.stats.result_valid) << protocol << "/" << app;
  const std::string want = fingerprint(seq);
  for (int threads : kThreadSweep) {
    const auto par =
        run_concurrently(protocol, app, params, seed, threads, threads);
    ASSERT_EQ(par.size(), static_cast<std::size_t>(threads));
    for (std::size_t i = 0; i < par.size(); ++i) {
      EXPECT_EQ(fingerprint(par[i]), want)
          << protocol << "/" << app << ": copy " << i << " of " << threads
          << " concurrent workers";
    }
  }
}

struct Cell {
  std::string protocol;
  std::string app;
};

void PrintTo(const Cell& c, std::ostream* os) { *os << c.protocol << "/" << c.app; }

class ParallelDeterminism : public ::testing::TestWithParam<Cell> {};

TEST_P(ParallelDeterminism, ThreadsProduceByteIdenticalArtifacts) {
  const Cell& c = GetParam();
  expect_parallel_matches_sequential(c.protocol, c.app, small_params(8), 42);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const std::string& pol : policy::registered_names()) {
    for (const std::string& app : apps::app_names()) {
      cells.push_back(Cell{pol, app});
    }
  }
  return cells;
}

std::string test_name(std::string s) {
  for (char& ch : s) {
    if (!(std::isalnum(static_cast<unsigned char>(ch)))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelDeterminism, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return test_name(info.param.protocol + "_" + info.param.app);
    });

// Fault planes drive the reliable transport (retransmission timers, acks,
// duplicate suppression, the pause window) — a completely different event
// mix from the fault-free fast path, and the part of the simulator with the
// most same-time event ties.
TEST(ParallelDeterminismFaults, DropAndDuplicate) {
  SystemParams p = small_params(8);
  p.faults.drop_rate = 0.05;
  p.faults.dup_rate = 0.05;
  expect_parallel_matches_sequential("AEC", "IS", p, 42);
  expect_parallel_matches_sequential("TreadMarks", "Ocean", p, 42);
}

TEST(ParallelDeterminismFaults, DelayReorderAndPause) {
  SystemParams p = small_params(8);
  p.faults.delay_rate = 0.1;
  p.faults.reorder_rate = 0.05;
  p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/50000, /*cycles=*/20000});
  expect_parallel_matches_sequential("AEC", "Water-ns", p, 42);
  expect_parallel_matches_sequential("Munin-ERC", "IS", p, 42);
}

TEST(ParallelDeterminismFaults, MultiplePauseWindows) {
  SystemParams p = small_params(8);
  p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/50000, /*cycles=*/20000});
  p.faults.pauses.push_back({/*node=*/3, /*at_cycle=*/90000, /*cycles=*/30000});
  expect_parallel_matches_sequential("AEC", "IS", p, 42);
}

// Fail-stop crash + failover is the most tie-heavy event mix: NIC drops,
// deferred retransmit timers, suspect verdicts, failover/re-election events
// and request replay. It also parks fibers for long stretches behind crash
// holds while other workers' fibers keep switching. Water-ns spreads 65
// locks over all 8 manager nodes, so a mid-run crash of node 3 takes down
// live lock managers with requests pending in every preset.
class ParallelDeterminismCrash
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminismCrash, CrashRunsAreByteIdenticalAcrossThreads) {
  SystemParams p = small_params(8);
  p.faults.crashes.push_back(
      {/*node=*/3, /*at_cycle=*/200000, /*cycles=*/400000});
  p.faults.crashes.push_back(
      {/*node=*/5, /*at_cycle=*/900000, /*cycles=*/300000});
  expect_parallel_matches_sequential(GetParam(), "Water-ns", p, 42);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ParallelDeterminismCrash,
    ::testing::ValuesIn(policy::registered_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return test_name(info.param);
    });

// Different seeds shift every event time; byte-identity must hold for all
// of them, not just the default.
TEST(ParallelDeterminismSeeds, SeedSweep) {
  for (std::uint64_t seed : {7u, 1234u}) {
    expect_parallel_matches_sequential("AEC", "Raytrace", small_params(8), seed);
  }
}

// Asking for more workers than there are cells must clamp the pool, not
// change a result.
TEST(ParallelDeterminismShape, MoreThreadsThanCells) {
  const SystemParams p = small_params(4);
  const auto seq =
      harness::run_experiment("AEC", "IS", apps::Scale::kSmall, p, 42);
  const auto par = run_concurrently("AEC", "IS", p, 42, /*copies=*/2,
                                    /*jobs=*/16);
  ASSERT_EQ(par.size(), 2u);
  for (const auto& r : par) EXPECT_EQ(fingerprint(r), fingerprint(seq));
}

// The events-processed counter feeds batch telemetry: every concurrent copy
// must report the sequential count, and the batch total must be their sum.
TEST(ParallelDeterminismShape, EventCountMatchesSequential) {
  const SystemParams p = small_params(8);
  const auto seq =
      harness::run_experiment("TreadMarks", "IS", apps::Scale::kSmall, p, 42);
  ASSERT_GT(seq.stats.engine_events, 0u);

  harness::ExperimentPlan plan;
  plan.name = "parallel_events";
  for (int i = 0; i < 4; ++i) {
    plan.add("TreadMarks", "IS", apps::Scale::kSmall, p, 42);
  }
  harness::BatchOptions opts;
  opts.jobs = 4;
  opts.no_cache = true;
  harness::BatchRunner runner(opts);
  const auto par = runner.run(plan);
  for (const auto& r : par) {
    EXPECT_EQ(r.stats.engine_events, seq.stats.engine_events);
  }
  EXPECT_EQ(runner.last_run_info().simulated, 4u);
  EXPECT_EQ(runner.last_run_info().engine_events,
            4 * seq.stats.engine_events);
}

}  // namespace
}  // namespace aecdsm::test
