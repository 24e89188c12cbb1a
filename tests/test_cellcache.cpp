// Tests for the content-addressed cell result cache and the cancellation
// path it rides with: key/hash stability, sensitivity to every cell input,
// warm runs serializing byte-identically to cold ones at any job count,
// corrupt-blob tolerance, telemetry round-trips, and --fail-fast.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "harness/batch.hpp"
#include "harness/cellcache.hpp"
#include "harness/json_out.hpp"
#include "harness/threadpool.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the system temp dir.
std::string fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("aecdsm_test_cache_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

harness::ExperimentCell make_cell() {
  harness::ExperimentPlan plan;
  plan.add("AEC", "IS", apps::Scale::kSmall, small_params(4), 7);
  return plan.cells[0];
}

TEST(CellCache, KeyAndHashAreStable) {
  const harness::ExperimentCell cell = make_cell();
  const std::string key = harness::CellCache::cell_key(cell);
  EXPECT_EQ(key, harness::CellCache::cell_key(cell));
  EXPECT_EQ(harness::CellCache::cell_hash(cell),
            harness::CellCache::cell_hash(cell));
  // The key carries the version salt and every identifying input.
  EXPECT_NE(key.find(harness::kSimVersionSalt), std::string::npos);
  EXPECT_NE(key.find("AEC"), std::string::npos);
  EXPECT_NE(key.find("IS"), std::string::npos);
  // The hash is a filename-safe 16-hex-digit string.
  const std::string hash = harness::CellCache::cell_hash(cell);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(CellCache, LabelDoesNotAffectHash) {
  harness::ExperimentCell a = make_cell();
  harness::ExperimentCell b = make_cell();
  b.label = "different-row-name";
  EXPECT_EQ(harness::CellCache::cell_hash(a), harness::CellCache::cell_hash(b));
}

TEST(CellCache, EveryInputChangesTheHash) {
  const harness::ExperimentCell base = make_cell();
  const std::string h0 = harness::CellCache::cell_hash(base);

  auto expect_differs = [&](harness::ExperimentCell cell, const char* what) {
    EXPECT_NE(harness::CellCache::cell_hash(cell), h0) << what;
  };

  { auto c = base; c.protocol = "TreadMarks"; expect_differs(c, "protocol"); }
  { auto c = base; c.app = "FFT"; expect_differs(c, "app"); }
  { auto c = base; c.scale = apps::Scale::kDefault; expect_differs(c, "scale"); }
  { auto c = base; c.seed = 8; expect_differs(c, "seed"); }
  { auto c = base; c.params.num_procs = 8; expect_differs(c, "num_procs"); }
  { auto c = base; c.params.page_bytes = 512; expect_differs(c, "page_bytes"); }
  { auto c = base; c.params.update_set_size += 1; expect_differs(c, "update_set_size"); }
  { auto c = base; c.params.affinity_threshold += 1; expect_differs(c, "affinity_threshold"); }
}

TEST(CellCache, StoreLoadRoundTripsAndSurvivesCorruptBlobs) {
  const std::string dir = fresh_cache_dir("roundtrip");
  const harness::ExperimentCell cell = make_cell();
  const harness::ExperimentResult fresh = harness::run_experiment(
      cell.protocol, cell.app, cell.scale, cell.params, cell.seed);

  harness::CellCache cache(dir);
  EXPECT_FALSE(cache.load(cell).has_value());  // cold
  cache.store(cell, fresh);
  const auto hit = cache.load(cell);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(harness::to_json(hit->stats).dump(),
            harness::to_json(fresh.stats).dump());

  // A garbage blob degrades to a miss, never an error — and the corrupt
  // file is deleted so it cannot shadow the slot forever.
  const fs::path blob =
      fs::path(dir) / "cells" / (harness::CellCache::cell_hash(cell) + ".json");
  ASSERT_TRUE(fs::exists(blob));
  std::ofstream(blob) << "{not json";
  EXPECT_FALSE(cache.load(cell).has_value());
  EXPECT_FALSE(fs::exists(blob));

  // Same for a truncated blob (a valid prefix of the real document)...
  cache.store(cell, fresh);
  {
    const std::string full = [&] {
      std::ifstream in(blob, std::ios::binary);
      return std::string((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    }();
    ASSERT_GT(full.size(), 64u);
    std::ofstream(blob, std::ios::binary | std::ios::trunc)
        << full.substr(0, full.size() / 2);
  }
  EXPECT_FALSE(cache.load(cell).has_value());
  EXPECT_FALSE(fs::exists(blob));

  // ...and for an existing-but-empty one (a killed writer's leftovers).
  std::ofstream(blob, std::ios::trunc);
  ASSERT_TRUE(fs::exists(blob));
  EXPECT_FALSE(cache.load(cell).has_value());
  EXPECT_FALSE(fs::exists(blob));

  // After the cleanup a fresh store serves hits again.
  cache.store(cell, fresh);
  EXPECT_TRUE(cache.load(cell).has_value());
  fs::remove_all(dir);
}

TEST(CellCache, WarmRunIsByteIdenticalAndSimulatesNothing) {
  const std::string dir = fresh_cache_dir("warm");
  harness::ExperimentPlan plan;
  plan.name = "warmth";
  for (const char* proto : {"AEC", "TreadMarks", "Munin-ERC", "AEC-noLAP"}) {
    plan.add(proto, "IS", apps::Scale::kSmall, small_params(4));
  }

  auto doc_with = [&](int jobs, bool refresh) {
    harness::BatchOptions opts;
    opts.jobs = jobs;
    opts.cache_dir = dir;
    opts.refresh = refresh;
    harness::BatchRunner runner(opts);
    const auto results = runner.run(plan);
    return std::make_pair(harness::BatchRunner::document(plan, results).dump(),
                          runner.last_run_info());
  };

  const auto [cold, cold_info] = doc_with(1, false);
  EXPECT_EQ(cold_info.cache_hits, 0u);
  EXPECT_EQ(cold_info.simulated, plan.cells.size());

  const auto [warm, warm_info] = doc_with(1, false);
  EXPECT_EQ(warm_info.cache_hits, plan.cells.size());
  EXPECT_EQ(warm_info.simulated, 0u);
  EXPECT_EQ(warm, cold);  // byte-identical document from cached cells

  const auto [warm4, warm4_info] = doc_with(4, false);
  EXPECT_EQ(warm4_info.simulated, 0u);
  EXPECT_EQ(warm4, cold);

  // --refresh ignores the memoized cells but re-stores fresh copies.
  const auto [refreshed, refresh_info] = doc_with(1, true);
  EXPECT_EQ(refresh_info.cache_hits, 0u);
  EXPECT_EQ(refresh_info.simulated, plan.cells.size());
  EXPECT_EQ(refreshed, cold);

  // A warm run after --refresh hits the rewritten blobs.
  const auto [rewarm, rewarm_info] = doc_with(2, false);
  EXPECT_EQ(rewarm_info.cache_hits, plan.cells.size());
  EXPECT_EQ(rewarm, cold);
  fs::remove_all(dir);
}

TEST(CellCache, VerifyCacheAcceptsSoundBlobsAndRejectsTamperedOnes) {
  const std::string dir = fresh_cache_dir("verify");
  harness::ExperimentPlan plan;
  plan.name = "verify";
  plan.add("AEC", "IS", apps::Scale::kSmall, small_params(4));

  auto run_with_verify = [&] {
    harness::BatchOptions opts;
    opts.jobs = 1;
    opts.cache_dir = dir;
    opts.verify_cache = true;
    harness::BatchRunner runner(opts);
    const auto results = runner.run(plan);
    return runner.last_run_info();
  };

  // Cold run: nothing to verify yet.
  EXPECT_EQ(run_with_verify().cache_verified, 0u);
  // Warm run: the hit is re-simulated cold and matches.
  EXPECT_EQ(run_with_verify().cache_verified, 1u);

  // Tamper with the blob's stats while keeping the key valid: verify must
  // now catch the divergence.
  const fs::path blob =
      fs::path(dir) / "cells" /
      (harness::CellCache::cell_hash(plan.cells[0]) + ".json");
  ASSERT_TRUE(fs::exists(blob));
  std::ifstream in(blob);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  json::Value doc = json::Value::parse(text);
  json::Value stats = doc.at("stats");
  stats["finish_time"] = json::Value(stats.at("finish_time").as_uint() + 1);
  doc["stats"] = std::move(stats);
  std::ofstream out(blob);
  out << doc.dump() << "\n";
  out.close();
  EXPECT_THROW(run_with_verify(), SimError);
  fs::remove_all(dir);
}

TEST(CellCache, TelemetryMergesLastObservationWins) {
  const std::string dir = fresh_cache_dir("telemetry");
  harness::CellCache cache(dir);
  EXPECT_TRUE(cache.load_telemetry().empty());
  cache.merge_telemetry({{"aaaa", 500}, {"bbbb", 20}});
  cache.merge_telemetry({{"aaaa", 900}, {"cccc", 7}}, {{"aaaa", 123456}});
  const harness::TelemetryMap t = cache.load_telemetry();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.at("aaaa"), 900u);
  EXPECT_EQ(t.at("bbbb"), 20u);
  EXPECT_EQ(t.at("cccc"), 7u);
  // The events/sec section is additive: cells without one stay absent, and
  // later merges preserve earlier observations.
  harness::TelemetryMap eps = cache.load_events_telemetry();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps.at("aaaa"), 123456u);
  cache.merge_telemetry({{"dddd", 1}}, {{"dddd", 777}});
  eps = cache.load_events_telemetry();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps.at("aaaa"), 123456u);
  EXPECT_EQ(eps.at("dddd"), 777u);
  fs::remove_all(dir);
}

TEST(CellCache, BatchRunRecordsTelemetryForSimulatedCells) {
  const std::string dir = fresh_cache_dir("batch_telemetry");
  harness::ExperimentPlan plan;
  plan.name = "tele";
  plan.add("AEC", "IS", apps::Scale::kSmall, small_params(4));
  harness::BatchOptions opts;
  opts.jobs = 1;
  opts.cache_dir = dir;
  harness::BatchRunner runner(opts);
  runner.run(plan);
  const harness::CellCache cache(dir);
  const harness::TelemetryMap t = cache.load_telemetry();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.count(harness::CellCache::cell_hash(plan.cells[0])));
  fs::remove_all(dir);
}

TEST(CellCache, ResolveDirPrecedence) {
  unsetenv("AECDSM_CACHE_DIR");
  EXPECT_EQ(harness::CellCache::resolve_dir("/explicit/dir"), "/explicit/dir");
  setenv("AECDSM_CACHE_DIR", "/from/env", 1);
  EXPECT_EQ(harness::CellCache::resolve_dir(""), "/from/env");
  EXPECT_EQ(harness::CellCache::resolve_dir("/explicit/dir"), "/explicit/dir");
  unsetenv("AECDSM_CACHE_DIR");
  // Without the env override the fallback chain still yields something.
  EXPECT_FALSE(harness::CellCache::resolve_dir("").empty());
}

TEST(ThreadPool, RequestStopDropsQueuedAndLaterTasks) {
  harness::ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  // Occupy the single worker so everything behind it stays queued.
  pool.submit([&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
    ++ran;
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) pool.submit([&] { ++ran; });
  pool.request_stop();
  EXPECT_TRUE(pool.stop_requested());
  pool.submit([&] { ++ran; });  // dropped: submitted after the stop
  release = true;
  pool.wait_all();
  // Only the in-flight task ran; the queued and late ones were cancelled.
  EXPECT_EQ(ran.load(), 1);
}

TEST(BatchRunner, FailFastSkipsRemainingCells) {
  harness::ExperimentPlan plan;
  plan.name = "failfast";
  plan.add("NoSuchProtocol", "IS", apps::Scale::kSmall, small_params(4));
  for (int i = 0; i < 3; ++i) {
    plan.add("AEC", "IS", apps::Scale::kSmall, small_params(4), 100 + i);
  }
  harness::BatchOptions opts;
  opts.jobs = 1;
  opts.no_cache = true;
  opts.fail_fast = true;
  harness::BatchRunner runner(opts);
  EXPECT_THROW(runner.run(plan), SimError);
  const harness::BatchRunInfo& info = runner.last_run_info();
  // With one worker the failing first cell cancels everything behind it.
  EXPECT_EQ(info.skipped, 3u);
  EXPECT_EQ(info.simulated, 1u);

  // Without --fail-fast the same plan still throws, but every cell runs.
  opts.fail_fast = false;
  harness::BatchRunner patient(opts);
  EXPECT_THROW(patient.run(plan), SimError);
  EXPECT_EQ(patient.last_run_info().skipped, 0u);
  EXPECT_EQ(patient.last_run_info().simulated, 4u);
}

}  // namespace
}  // namespace aecdsm::test
