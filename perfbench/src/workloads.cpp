#include "workloads.hpp"

#include <vector>

#include "common/check.hpp"

namespace perfbench {
namespace {

using aecdsm::SystemParams;
using aecdsm::apps::Scale;
using aecdsm::harness::ExperimentCell;
using aecdsm::harness::ExperimentPlan;

const std::vector<std::string> kPaperApps = {"IS",    "Raytrace", "Water-ns",
                                             "FFT",   "Ocean",    "Water-sp"};
const std::vector<std::string> kPresets = {"AEC", "AEC-TmkBarrier", "AEC-noLAP",
                                           "Munin-ERC", "TreadMarks"};

/// A seed selects one of kVariants input variants. Every cell of every
/// variant passed its oracle when the benchmark was defined; variant 0 holds
/// the seeds the reference statistics were recorded with.
constexpr std::uint64_t kVariants = 16;

/// paper16: every preset on the paper's six applications at default scale,
/// on the paper's 16-node 4x4 mesh, fault-free (the policy-matrix sweep).
ExperimentPlan paper16() {
  ExperimentPlan plan;
  plan.name = "paper16";
  for (const std::string& app : kPaperApps) {
    for (const std::string& preset : kPresets) plan.add(preset, app);
  }
  return plan;
}

/// mesh256: the lock-scale sweep's 256-node cells — three `syn:` contention
/// specs x three lock strategies on a 16x16 mesh with shrunk pages.
ExperimentPlan mesh256(std::uint64_t variant) {
  struct Spec {
    const char* body;
    std::uint64_t seed;
  };
  const Spec specs[] = {{"syn:hotspot/cs64/fan2/bursts4", 17},
                        {"syn:hotspot/cs512/fan8/bursts4", 17},
                        {"syn:migratory/cs32/fan4", 7}};
  ExperimentPlan plan;
  plan.name = "mesh256";
  for (const Spec& s : specs) {
    const std::string spec =
        std::string(s.body) + "/seed" + std::to_string(s.seed + variant);
    for (const char* strategy : {"central", "mcs", "hier"}) {
      SystemParams p;
      p.num_procs = 256;
      p.mesh_width = 16;
      p.page_bytes = 256;
      p.cache_bytes = 8 * 1024;
      p.locks.strategy = strategy;
      p.locks.collect_stats = true;
      ExperimentCell& cell = plan.add("AEC", spec, Scale::kSmall, p, /*seed=*/7);
      cell.label = std::string(strategy) + "/" + spec + "@256";
    }
  }
  return plan;
}

}  // namespace

ExperimentPlan build_plan(const std::string& workload, std::uint64_t seed) {
  if (workload == "paper16") return paper16();
  if (workload == "mesh256") return mesh256(seed % kVariants);
  throw aecdsm::SimError("unknown workload '" + workload + "' (paper16, mesh256)");
}

bool seed_varies_inputs(const std::string& workload, std::uint64_t seed) {
  return seed % kVariants != 0 && workload != "paper16";
}

}  // namespace perfbench
