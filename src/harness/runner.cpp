#include "harness/runner.hpp"

#include "common/check.hpp"
#include "dsm/system.hpp"
#include "harness/lap_report.hpp"
#include "policy/instance.hpp"

namespace aecdsm::harness {

SystemParams paper_params() {
  return SystemParams{};  // Table 1 defaults: 16 procs, 4x4 mesh, 4K pages
}

ExperimentResult run_experiment(const std::string& protocol, const std::string& app_name,
                                apps::Scale scale, const SystemParams& params,
                                std::uint64_t seed, double wall_timeout_sec,
                                trace::Recorder* recorder) {
  auto app = apps::make_app(app_name, scale);
  dsm::RunConfig cfg;
  cfg.params = params;
  cfg.seed = seed;
  cfg.wall_timeout_sec = wall_timeout_sec;
  cfg.recorder = recorder;

  // The registry replaces the old per-protocol if/else chain: any registered
  // policy (the legacy presets plus hybrids) resolves to a runnable suite.
  policy::ProtocolInstance inst = policy::make_instance(protocol);
  ExperimentResult out;
  out.stats = dsm::run_app(*app, inst.suite(), cfg);
  out.aec = inst.aec_shared();
  out.tm = inst.tm_shared();
  out.erc = inst.erc_shared();
  AECDSM_CHECK_MSG(out.stats.result_valid,
                   app_name << " under " << protocol << " failed its oracle check");
  out.lap_scores = lap_scores_of(out);
  return out;
}

}  // namespace aecdsm::harness
