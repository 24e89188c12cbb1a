// Tests for deterministic fault injection and the reliable transport:
// per-link fault schedules that replay exactly under a fixed seed, drop /
// duplicate / delay / reorder recovery, the exponential retransmit backoff
// schedule, receiver-side dedup and in-order release, node pause windows,
// wall-clock timeouts, and whole-run byte-identical determinism (and
// graceful completion) of every application under a lossy mesh.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"
#include "net/fault.hpp"
#include "net/mesh.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

SystemParams faulty_params(double drop, std::uint64_t fault_seed = 7) {
  SystemParams p = small_params(4);
  p.faults.drop_rate = drop;
  p.faults.seed = fault_seed;
  return p;
}

TEST(FaultParams, ValidationRejectsBadRatesAndCertainLoss) {
  EXPECT_TRUE(SystemParams{}.validate().empty());
  {
    SystemParams p = faulty_params(0.05);
    EXPECT_TRUE(p.validate().empty()) << p.validate();
  }
  {
    SystemParams p = faulty_params(1.0);  // would retransmit forever
    EXPECT_FALSE(p.validate().empty());
  }
  {
    SystemParams p = faulty_params(-0.1);
    EXPECT_FALSE(p.validate().empty());
  }
  {
    SystemParams p = faulty_params(0.05);
    p.faults.retransmit_timeout_cycles = 0;
    EXPECT_FALSE(p.validate().empty());
  }
  {
    SystemParams p = small_params(4);
    p.faults.pauses.push_back({/*node=*/99, 0, 10});  // outside [0, num_procs)
    EXPECT_FALSE(p.validate().empty());
  }
  {
    SystemParams p = small_params(4);
    p.faults.crashes.push_back({/*node=*/0, 0, 10});  // node 0 may not crash
    EXPECT_FALSE(p.validate().empty());
  }
  {
    SystemParams p = small_params(4);
    p.faults.crashes.push_back({/*node=*/1, /*at_cycle=*/100, /*cycles=*/500});
    p.faults.crashes.push_back({/*node=*/1, /*at_cycle=*/400, /*cycles=*/100});
    EXPECT_FALSE(p.validate().empty());  // overlapping windows on node 1
  }
  {
    SystemParams p = small_params(4);
    p.faults.crashes.push_back({/*node=*/1, /*at_cycle=*/100, /*cycles=*/200});
    p.faults.crashes.push_back({/*node=*/1, /*at_cycle=*/400, /*cycles=*/100});
    EXPECT_TRUE(p.validate().empty()) << p.validate();  // disjoint is fine
    p.faults.suspect_after = 0;
    EXPECT_FALSE(p.validate().empty());
  }
}

TEST(FaultParams, DefaultIsDisabledAndOmittedFromJson) {
  const SystemParams p;
  EXPECT_FALSE(p.faults.any());
  // The params JSON must not change for fault-free runs: the committed
  // bench_all baseline (and every cell cache key) depends on it.
  EXPECT_EQ(harness::to_json(p).dump().find("faults"), std::string::npos);
  SystemParams q = faulty_params(0.01);
  EXPECT_TRUE(q.faults.any());
  EXPECT_NE(harness::to_json(q).dump().find("faults"), std::string::npos);
}

TEST(FaultPlane, SameSeedReplaysTheSameSchedule) {
  const SystemParams p = [&] {
    SystemParams q = small_params(4);
    q.faults.drop_rate = 0.2;
    q.faults.dup_rate = 0.2;
    q.faults.delay_rate = 0.2;
    q.faults.reorder_rate = 0.2;
    q.faults.seed = 99;
    return q;
  }();
  net::FaultPlane a(p), b(p);
  ASSERT_TRUE(a.enabled());
  for (int i = 0; i < 2000; ++i) {
    const ProcId src = static_cast<ProcId>(i % 4);
    const ProcId dst = static_cast<ProcId>((i + 1) % 4);
    const auto da = a.decide(src, dst);
    const auto db = b.decide(src, dst);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.delayed, db.delayed);
    EXPECT_EQ(da.reordered, db.reordered);
  }
}

TEST(FaultPlane, LinksDrawFromIndependentStreams) {
  SystemParams p = faulty_params(0.3, 11);
  // Plane A interleaves traffic on two links; plane B only ever uses one.
  // The decisions on the common link must be identical: a link's schedule
  // depends only on its own copy count, never on other links' traffic.
  net::FaultPlane a(p), b(p);
  for (int i = 0; i < 500; ++i) {
    const auto da = a.decide(0, 1);
    (void)a.decide(1, 0);
    (void)a.decide(2, 3);
    const auto db = b.decide(0, 1);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
  }
}

TEST(FaultPlane, RatesAreApproximatelyHonored) {
  SystemParams p = faulty_params(0.1, 5);
  p.faults.dup_rate = 0.25;
  net::FaultPlane plane(p);
  int drops = 0, dups = 0, survived = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto d = plane.decide(0, 1);
    if (d.drop) {
      ++drops;
      continue;  // a dropped copy never duplicates
    }
    ++survived;
    dups += d.duplicate ? 1 : 0;
  }
  EXPECT_NEAR(drops / static_cast<double>(n), 0.10, 0.02);
  EXPECT_NEAR(dups / static_cast<double>(survived), 0.25, 0.02);
}

TEST(Transport, DisabledPlaneIsAStrictPassthrough) {
  const SystemParams p = small_params(4);
  sim::Engine mesh_engine;
  net::MeshNetwork bare(mesh_engine, p);
  Cycles bare_arrival = 0;
  bare.send(0, 3, 512, [&] { bare_arrival = mesh_engine.now(); });
  mesh_engine.run();

  sim::Engine engine;
  net::MeshNetwork mesh(engine, p);
  net::Transport transport(engine, mesh, p);
  EXPECT_FALSE(transport.enabled());
  Cycles arrival = 0;
  transport.send(0, 3, 512, [&] { arrival = engine.now(); });
  engine.run();
  EXPECT_EQ(arrival, bare_arrival);
  EXPECT_FALSE(transport.stats().any());  // nothing counted when disabled
}

TEST(Transport, DeliversEverythingInOrderUnderHeavyFaults) {
  SystemParams p = faulty_params(0.2, 13);
  p.faults.dup_rate = 0.2;
  p.faults.delay_rate = 0.3;
  p.faults.reorder_rate = 0.2;
  sim::Engine engine;
  net::MeshNetwork mesh(engine, p);
  net::Transport transport(engine, mesh, p);
  ASSERT_TRUE(transport.enabled());

  const int n = 200;
  std::vector<int> delivered;
  for (int i = 0; i < n; ++i) {
    transport.send(0, 1, 128, [&delivered, i] { delivered.push_back(i); });
  }
  engine.run();

  // Exactly once each, in send order, despite drops / dups / reorders.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(delivered[i], i);

  const TransportStats& s = transport.stats();
  EXPECT_EQ(s.data_sends, static_cast<std::uint64_t>(n));
  EXPECT_GT(s.drops_injected, 0u);
  EXPECT_GT(s.dups_injected, 0u);
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_GT(s.dup_dropped, 0u);
  EXPECT_GT(s.acks, 0u);
}

TEST(Transport, RetransmitBackoffFollowsTheExponentialSchedule) {
  SystemParams p = faulty_params(0.5, 3);
  p.faults.retransmit_timeout_cycles = 10000;
  p.faults.retransmit_backoff_cap = 2;

  // Replay the link's fault schedule to learn which copy survives first.
  net::FaultPlane replica(p);
  int first_success = 0;
  while (replica.decide(0, 1).drop) ++first_success;
  ASSERT_GT(first_success, 0) << "seed 3 should drop the first copy";

  // Copy k is injected at sum of the backed-off RTOs before it.
  Cycles inject_at = 0;
  for (int k = 0; k < first_success; ++k) {
    inject_at += p.faults.retransmit_timeout_cycles
                 << std::min(k, p.faults.retransmit_backoff_cap);
  }

  sim::Engine engine;
  net::MeshNetwork mesh(engine, p);
  net::Transport transport(engine, mesh, p);
  Cycles delivered_at = 0;
  std::uint64_t timeouts_at_delivery = 0;
  int deliveries = 0;
  transport.send(0, 1, 64, [&] {
    delivered_at = engine.now();
    timeouts_at_delivery = transport.stats().timeouts;
    ++deliveries;
  });
  engine.run();

  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(delivered_at, inject_at + mesh.uncontended_latency(0, 1, 64));
  EXPECT_EQ(timeouts_at_delivery, static_cast<std::uint64_t>(first_success));
}

TEST(Transport, PausedNodeDefersDeliveryToTheWindowEnd) {
  SystemParams p = small_params(4);
  p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/0, /*cycles=*/50000});
  p.faults.retransmit_timeout_cycles = 200000;  // no retransmit during pause
  ASSERT_TRUE(p.faults.any());
  sim::Engine engine;
  net::MeshNetwork mesh(engine, p);
  net::Transport transport(engine, mesh, p);
  Cycles delivered_at = 0;
  int deliveries = 0;
  transport.send(0, 1, 64, [&] {
    delivered_at = engine.now();
    ++deliveries;
  });
  engine.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(delivered_at, 50000u);
  EXPECT_EQ(transport.stats().paused_deliveries, 1u);
  EXPECT_EQ(transport.stats().retransmits, 0u);
}

TEST(Transport, BestEffortSendsAreFireAndForget) {
  SystemParams p = faulty_params(0.4, 21);
  sim::Engine engine;
  net::MeshNetwork mesh(engine, p);
  net::Transport transport(engine, mesh, p);
  const int n = 500;
  int arrived = 0;
  for (int i = 0; i < n; ++i) {
    transport.send_best_effort(0, 1, 64, [&] { ++arrived; });
  }
  engine.run();
  const TransportStats& s = transport.stats();
  EXPECT_EQ(s.push_sends, static_cast<std::uint64_t>(n));
  EXPECT_GT(s.push_drops, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(arrived), s.push_sends - s.push_drops);
  EXPECT_EQ(s.retransmits, 0u);  // lost pushes are simply gone
  EXPECT_EQ(s.acks, 0u);
}

TEST(Engine, WallDeadlineRaisesTimeoutError) {
  sim::Engine engine;
  // Endless self-rescheduling event; only the deadline can stop it.
  std::uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    engine.schedule(engine.now() + 1, tick);
  };
  engine.schedule(0, tick);
  engine.set_wall_deadline(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(50));
  try {
    engine.run();
    FAIL() << "deadline did not fire";
  } catch (const TimeoutError& e) {
    // The message counts executed events, not the one still queued.
    EXPECT_NE(std::string(e.what()).find("after " + std::to_string(ticks) + " events"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultRuns, SameFaultSeedGivesByteIdenticalRunStats) {
  SystemParams p = harness::paper_params();
  p.faults.drop_rate = 0.01;  // the acceptance criterion's 1% loss point
  p.faults.seed = 7;
  const auto a =
      harness::run_experiment("AEC", "IS", apps::Scale::kSmall, p);
  const auto b =
      harness::run_experiment("AEC", "IS", apps::Scale::kSmall, p);
  EXPECT_GT(a.stats.transport.retransmits, 0u);
  EXPECT_EQ(harness::to_json(a.stats).dump(), harness::to_json(b.stats).dump());
  EXPECT_EQ(harness::lap_json(a).dump(), harness::lap_json(b).dump());
}

TEST(FaultRuns, EveryAppCompletesUnderFivePercentLoss) {
  SystemParams p = harness::paper_params();
  p.faults.drop_rate = 0.05;
  p.faults.seed = 7;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_push_activity = 0;
  for (const std::string& app : apps::app_names()) {
    for (const char* proto : {"AEC", "TreadMarks"}) {
      // run_experiment itself checks the app's oracle, so completing here
      // means correct output despite the losses, not just termination.
      const auto r = harness::run_experiment(proto, app, apps::Scale::kSmall, p);
      EXPECT_GT(r.stats.transport.retransmits, 0u) << proto << "/" << app;
      total_retransmits += r.stats.transport.retransmits;
      total_push_activity += r.stats.transport.push_drops +
                             r.stats.transport.push_fallbacks;
    }
  }
  EXPECT_GT(total_retransmits, 0u);
  // AEC's best-effort LAP pushes really were exposed to the loss.
  EXPECT_GT(total_push_activity, 0u);
}

}  // namespace
}  // namespace aecdsm::test
