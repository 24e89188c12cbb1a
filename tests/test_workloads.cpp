// Conformance suite for the `syn:` workload grammar: every generated
// workload in the test corpus must pass its embedded sequential oracle
// under every registered policy preset. Plus the harness integration contracts:
// spec spellings alias one cell-cache entry, and warm batch runs reproduce
// cold artifacts byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "apps/synthetic/workload.hpp"
#include "harness/batch.hpp"
#include "harness/cellcache.hpp"
#include "harness/runner.hpp"
#include "policy/policy.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

namespace fs = std::filesystem;

/// One spec per sharing pattern, plus a single-lock long-CS stress spelling.
std::vector<std::string> test_corpus() {
  return {
      "syn:migratory/cs32/fan4/seed7",
      "syn:producer-consumer/fan4/seed3",
      "syn:read-mostly/fan4/cells96/seed13",
      "syn:hotspot/cs64/fan8/seed17",
      "syn:mixed/fan6/seed23",
      "syn:read-mostly/cs512/fan1/seed31",
  };
}

struct ConformanceCase {
  std::string spec;
  std::string policy;
};

class WorkloadConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(WorkloadConformance, OracleHolds) {
  const auto& [spec, policy] = GetParam();
  const auto seq = harness::run_experiment(policy, spec, apps::Scale::kSmall,
                                           small_params(4), /*seed=*/7);
  EXPECT_TRUE(seq.stats.result_valid) << spec << " under " << policy;
  EXPECT_EQ(seq.stats.app,
            apps::synthetic::WorkloadSpec::parse(spec).fingerprint());
}

std::vector<ConformanceCase> conformance_cases() {
  std::vector<ConformanceCase> cases;
  for (const std::string& spec : test_corpus()) {
    for (const std::string& pol : policy::registered_names()) {
      cases.push_back(ConformanceCase{spec, pol});
    }
  }
  return cases;
}

std::string conformance_name(const ::testing::TestParamInfo<ConformanceCase>& info) {
  const auto& spec = info.param.spec;
  // "syn:hotspot/cs64/fan8/seed17" -> "hotspot_cs64_fan8_seed17"
  std::string s = spec.substr(spec.find(':') + 1) + "_" + info.param.policy;
  for (char& ch : s) {
    if (ch == '/' || ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, WorkloadConformance,
                         ::testing::ValuesIn(conformance_cases()),
                         conformance_name);

// ---- harness integration ----------------------------------------------------

harness::ExperimentCell syn_cell(const std::string& spec) {
  harness::ExperimentPlan plan;
  plan.add("AEC", spec, apps::Scale::kSmall, small_params(4), 7);
  return plan.cells[0];
}

TEST(WorkloadCache, SpellingsOfOneSpecShareACacheKey) {
  const std::string canonical = harness::CellCache::cell_hash(
      syn_cell("syn:hotspot/cs64/fan4/seed5"));
  EXPECT_EQ(harness::CellCache::cell_hash(syn_cell("syn:hotspot/seed5")),
            canonical);
  EXPECT_EQ(harness::CellCache::cell_hash(
                syn_cell("syn:hotspot/seed5/fan4/cs64/read10")),
            canonical);
  EXPECT_NE(harness::CellCache::cell_hash(syn_cell("syn:hotspot/seed6")),
            canonical);
  EXPECT_NE(harness::CellCache::cell_hash(syn_cell("syn:hotspot/seed5/cs65")),
            canonical);
  EXPECT_NE(harness::CellCache::cell_hash(syn_cell("syn:migratory/seed5")),
            canonical);
}

TEST(WorkloadCache, MalformedSpecsFallBackToTheirRawSpelling) {
  // cell_key must not throw on a malformed spec (the parse error surfaces
  // at make_app); distinct raw spellings must not alias.
  EXPECT_NE(harness::CellCache::cell_hash(syn_cell("syn:bogus/a")),
            harness::CellCache::cell_hash(syn_cell("syn:bogus/b")));
}

std::string fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("aecdsm_test_cache_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

// A warm batch over spec-named cells must simulate nothing and reproduce
// the cold artifact byte for byte.
TEST(WorkloadCache, WarmBatchIsByteIdenticalToCold) {
  harness::ExperimentPlan plan;
  plan.name = "workloads-test";
  for (const char* spec :
       {"syn:migratory/cs32/fan4/seed7", "syn:hotspot/cs64/fan8/seed17"}) {
    for (const char* pol : {"AEC", "TreadMarks"}) {
      plan.add(pol, spec, apps::Scale::kSmall, small_params(4), 7);
    }
  }

  harness::BatchOptions cold_opts;
  cold_opts.jobs = 2;
  cold_opts.json_path = "off";
  cold_opts.cache_dir = fresh_cache_dir("workloads");
  harness::BatchRunner cold(cold_opts);
  const auto cold_results = cold.run(plan);
  EXPECT_EQ(cold.last_run_info().simulated, plan.cells.size());

  harness::BatchRunner warm(cold_opts);
  const auto warm_results = warm.run(plan);
  EXPECT_EQ(warm.last_run_info().cache_hits, plan.cells.size());
  EXPECT_EQ(warm.last_run_info().simulated, 0u);

  EXPECT_EQ(harness::BatchRunner::document(plan, warm_results).dump(),
            harness::BatchRunner::document(plan, cold_results).dump());
}

TEST(WorkloadRegistry, DefaultCorpusConstructsAtBothScales) {
  for (const std::string& spec : apps::synthetic::default_corpus()) {
    for (const apps::Scale scale : {apps::Scale::kSmall, apps::Scale::kDefault}) {
      auto app = apps::make_app(spec, scale);
      ASSERT_NE(app, nullptr) << spec;
      EXPECT_EQ(app->name(),
                apps::synthetic::WorkloadSpec::parse(spec).fingerprint());
      EXPECT_GT(app->shared_bytes(), 0u);
    }
  }
}

}  // namespace
}  // namespace aecdsm::test
