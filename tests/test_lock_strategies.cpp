// End-to-end suite for the non-default lock-manager strategies (src/locks,
// DESIGN.md §13): mcs and hier must preserve every correctness contract the
// central manager satisfies — synthetic-corpus oracles under every policy
// preset, the paper applications, and lock-manager failover under fail-stop
// crashes — while exhibiting the behaviors they exist for: direct
// releaser->successor handoffs (mcs, with throughput matching the Aksenov
// closed-form model) and reduced cross-quadrant handoffs on large meshes
// (hier).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "dsm/shared_array.hpp"
#include "harness/runner.hpp"
#include "locks/model.hpp"
#include "policy/policy.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

SystemParams strategy_params(int nprocs, const std::string& strategy) {
  SystemParams p = small_params(nprocs);
  p.locks.strategy = strategy;
  return p;
}

// ------------------------------------------------- corpus x preset conformance

/// The same spec corpus the workload conformance suite pins for `central`
/// (one spec per sharing pattern plus a long-CS stress spelling).
std::vector<std::string> corpus() {
  return {
      "syn:migratory/cs32/fan4/seed7",
      "syn:producer-consumer/fan4/seed3",
      "syn:read-mostly/fan4/cells96/seed13",
      "syn:hotspot/cs64/fan8/seed17",
      "syn:mixed/fan6/seed23",
      "syn:read-mostly/cs512/fan1/seed31",
  };
}

struct StrategyCase {
  std::string spec;
  std::string policy;
  std::string strategy;
};

class StrategyConformance : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyConformance, OracleHolds) {
  const auto& [spec, policy, strategy] = GetParam();
  const SystemParams params = strategy_params(4, strategy);
  const auto seq = harness::run_experiment(policy, spec, apps::Scale::kSmall,
                                           params, /*seed=*/7);
  ASSERT_TRUE(seq.stats.result_valid)
      << spec << " under " << policy << "/" << strategy;
  // The strategy machinery lives in the AEC and ERC lock managers;
  // TreadMarks uses its own distributed-owner locks and ignores the knob.
  if (policy != "TreadMarks") {
    EXPECT_GT(seq.stats.lockmgr.grants, 0u);
  }
}

std::vector<StrategyCase> conformance_cases() {
  std::vector<StrategyCase> cases;
  for (const std::string& spec : corpus()) {
    for (const std::string& pol : policy::registered_names()) {
      for (const char* strat : {"mcs", "hier"}) {
        cases.push_back(StrategyCase{spec, pol, strat});
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<StrategyCase>& info) {
  const auto& spec = info.param.spec;
  std::string s = spec.substr(spec.find(':') + 1) + "_" + info.param.policy +
                  "_" + info.param.strategy;
  for (char& ch : s) {
    if (ch == '/' || ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, StrategyConformance,
                         ::testing::ValuesIn(conformance_cases()), case_name);

// ------------------------------------------------------------------ paper apps

class StrategyPaperApps : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyPaperApps, AllSixApplicationsStayOracleValid) {
  const SystemParams params = strategy_params(16, GetParam());
  for (const std::string& app : apps::app_names()) {
    const auto r = harness::run_experiment("AEC", app, apps::Scale::kSmall,
                                           params, /*seed=*/42);
    EXPECT_TRUE(r.stats.result_valid) << app << " under " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyPaperApps,
                         ::testing::Values("mcs", "hier"));

// ---------------------------------------------------------------- mcs behavior

TEST(McsStrategy, HotLockHandsOffDirectlyWithoutTheManager) {
  const auto central = harness::run_experiment(
      "AEC", "syn:hotspot/cs64/fan2/seed17", apps::Scale::kSmall,
      [] {
        SystemParams p = small_params(16);
        p.locks.collect_stats = true;
        return p;
      }(),
      7);
  const auto mcs = harness::run_experiment("AEC", "syn:hotspot/cs64/fan2/seed17",
                                           apps::Scale::kSmall,
                                           strategy_params(16, "mcs"), 7);
  ASSERT_TRUE(central.stats.result_valid);
  ASSERT_TRUE(mcs.stats.result_valid);
  // Same lock schedule, same number of grants — mcs only changes transport.
  EXPECT_EQ(mcs.stats.lockmgr.grants, central.stats.lockmgr.grants);
  EXPECT_EQ(central.stats.lockmgr.direct_handoffs, 0u);
  EXPECT_GT(mcs.stats.lockmgr.direct_handoffs, 0u);
  EXPECT_GT(mcs.stats.lockmgr.link_messages, 0u);
  // Direct handoffs bypass the REL+GRANT pair through the manager: most
  // contended transfers must take the short path.
  EXPECT_GT(mcs.stats.lockmgr.direct_handoffs,
            mcs.stats.lockmgr.handoffs / 2);
}

TEST(McsStrategy, ThroughputOfASaturatedLockMatchesTheAksenovModel) {
  // Pure synchronization loop: no shared data, so a release carries an
  // empty page list and the critical path of one lock tenure is exactly
  // cs_cycles + one direct-handoff latency — the regime the closed-form
  // 1 / (C + H) models.
  constexpr Cycles kCs = 2000;
  constexpr int kIters = 40;
  const SystemParams params = strategy_params(16, "mcs");
  LambdaApp app(
      "mcs_saturated", 4096, [](dsm::Machine&) {},
      [&](dsm::Context& ctx) {
        for (int i = 0; i < kIters; ++i) {
          ctx.lock(0);
          ctx.compute(kCs);
          ctx.unlock(0);
        }
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(true);
      });
  const RunStats stats = run_protocol(app, "AEC", params);
  ASSERT_TRUE(stats.result_valid);
  const LockMgrStats& lm = stats.lockmgr;
  ASSERT_EQ(lm.grants, 16u * kIters);
  ASSERT_GT(lm.handoffs, 0u);
  // H: the 64-byte handoff message (kCtl + grant delta, empty page list)
  // over the measured mean handoff distance, with the empty-list grant
  // service (list_processing_per_elem * 4) — plus one extra interrupt: AEC
  // LAP-pushes the (empty) chain diff to the predicted next owner at
  // release, and that service occupies the successor's handler context
  // right before the grant arrives, serializing ahead of it.
  const double avg_hops = static_cast<double>(lm.handoff_hops) /
                          static_cast<double>(lm.handoffs);
  const Cycles handoff = locks::mcs_handoff_cycles(
                             params, /*bytes=*/64,
                             static_cast<int>(std::lround(avg_hops)),
                             params.list_processing_per_elem * 4) +
                         params.interrupt_cycles;
  const double predicted =
      locks::mcs_predicted_throughput(static_cast<double>(kCs),
                                      static_cast<double>(handoff));
  const double simulated = static_cast<double>(lm.grants) /
                           static_cast<double>(stats.finish_time);
  // The model ignores the post-grant wake-up tail and the few uncontended
  // startup grants; they are worth ~2% here. Hold the agreement to 15%.
  EXPECT_NEAR(simulated / predicted, 1.0, 0.15)
      << "simulated " << simulated << " acq/cycle vs predicted " << predicted
      << " (avg hops " << avg_hops << ", H " << handoff << ", direct "
      << lm.direct_handoffs << "/" << lm.handoffs << ", fallback "
      << lm.fallback_rels << ", link " << lm.link_messages << ")";
}

// --------------------------------------------------------------- hier behavior

TEST(HierStrategy, CutsCrossQuadrantHandoffsOnA256NodeHotspot) {
  // 16 x 16 mesh, every node hammering the hotspot lock. central serves in
  // global FIFO order, so ~3/4 of its handoffs leave the releaser's
  // quadrant; hier keeps handoffs inside the quadrant up to the fairness
  // budget and must land well under that.
  auto params_for = [](const std::string& strategy) {
    SystemParams p;
    p.num_procs = 256;
    p.mesh_width = 16;
    p.page_bytes = 256;
    p.cache_bytes = 8 * 1024;
    p.locks.strategy = strategy;
    p.locks.collect_stats = true;
    return p;
  };
  const char* spec = "syn:hotspot/cs32/fan2/bursts4/seed17";
  const auto central = harness::run_experiment("AEC", spec, apps::Scale::kSmall,
                                               params_for("central"), 7);
  const auto hier = harness::run_experiment("AEC", spec, apps::Scale::kSmall,
                                            params_for("hier"), 7);
  ASSERT_TRUE(central.stats.result_valid);
  ASSERT_TRUE(hier.stats.result_valid);
  const LockMgrStats& c = central.stats.lockmgr;
  const LockMgrStats& h = hier.stats.lockmgr;
  ASSERT_GT(c.handoffs, 0u);
  ASSERT_GT(h.handoffs, 0u);
  EXPECT_GT(h.hier_skips, 0u);
  const double c_cross = static_cast<double>(c.cross_cohort) /
                         static_cast<double>(c.handoffs);
  const double h_cross = static_cast<double>(h.cross_cohort) /
                         static_cast<double>(h.handoffs);
  EXPECT_LT(h_cross, c_cross)
      << "hier cross-quadrant fraction " << h_cross << " vs central " << c_cross;
  const double c_hops = static_cast<double>(c.handoff_hops) /
                        static_cast<double>(c.handoffs);
  const double h_hops = static_cast<double>(h.handoff_hops) /
                        static_cast<double>(h.handoffs);
  EXPECT_LT(h_hops, c_hops)
      << "hier mean handoff hops " << h_hops << " vs central " << c_hops;
}

// ------------------------------------------------------------- crash interplay

class StrategyCrash : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyCrash, FailoverSurvivesAndMcsStandsDown) {
  // The contended-counter program from the crash-recovery suite: crash the
  // manager of lock 1 mid-contention. Under a crash schedule the mcs
  // machinery is disabled outright (links and direct handoffs assume the
  // manager's queue is authoritative), so the run must fall back to the
  // proven central failover chain and still lose no updates.
  constexpr int kIters = 20;
  auto run = [&](const SystemParams& params) {
    dsm::SharedArray<std::uint32_t> counter;
    LambdaApp app(
        "strategy_crash", 4096,
        [&](dsm::Machine& m) {
          counter = dsm::SharedArray<std::uint32_t>::alloc(m, 1);
        },
        [&](dsm::Context& ctx) {
          for (int i = 0; i < kIters; ++i) {
            ctx.lock(1);
            counter.put(ctx, 0, counter.get(ctx, 0) + 1);
            ctx.unlock(1);
            ctx.compute(5000);
          }
          ctx.barrier();
          if (ctx.pid() == 0) {
            app.set_ok(counter.get(ctx, 0) ==
                       static_cast<std::uint32_t>(kIters * ctx.nprocs()));
          }
        });
    return run_protocol(app, "AEC", params);
  };
  const RunStats base = run(strategy_params(4, GetParam()));
  ASSERT_TRUE(base.result_valid);
  SystemParams crash = strategy_params(4, GetParam());
  crash.faults.retransmit_timeout_cycles = 5000;
  crash.faults.crashes.push_back(
      {/*node=*/1, /*at_cycle=*/base.finish_time / 4,
       /*cycles=*/base.finish_time / 2});
  const RunStats crashed = run(crash);
  EXPECT_TRUE(crashed.result_valid)
      << GetParam() << ": updates lost through the failover";
  EXPECT_GE(crashed.recovery.failovers, 1u);
  EXPECT_EQ(crashed.lockmgr.direct_handoffs, 0u)
      << "mcs direct handoffs must be disabled under a crash schedule";
  EXPECT_EQ(crashed.lockmgr.link_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyCrash,
                         ::testing::Values("mcs", "hier"));

}  // namespace
}  // namespace aecdsm::test
