#include "probe.hpp"

#include <sys/resource.h>

#include <chrono>
#include <memory>

#include "dsm/system.hpp"
#include "harness/lap_report.hpp"
#include "policy/instance.hpp"

namespace perfbench {
namespace {

using namespace aecdsm;

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Forwards every call to the real app, stamping the boundaries run_app
/// crosses: setup, the first body entry (on a cothread) and ok().
class TimedApp final : public dsm::App {
 public:
  TimedApp(dsm::App& inner, const Probe& probe, CellMarks& marks)
      : inner_(inner), probe_(probe), marks_(marks) {}

  std::string name() const override { return inner_.name(); }
  std::size_t shared_bytes() const override { return inner_.shared_bytes(); }

  void setup(dsm::Machine& m) override {
    marks_.setup_begin = probe_.stamp();
    inner_.setup(m);
    marks_.setup_end = probe_.stamp();
  }

  void body(dsm::Context& ctx) override {
    // Bodies run one at a time (cothreads), so a plain flag is race-free.
    if (!body_seen_) {
      body_seen_ = true;
      marks_.first_body = probe_.stamp();
    }
    inner_.body(ctx);
  }

  bool ok() const override {
    if (!ok_seen_) {
      ok_seen_ = true;
      marks_.ok_call = probe_.stamp();
    }
    return inner_.ok();
  }

 private:
  dsm::App& inner_;
  const Probe& probe_;
  CellMarks& marks_;
  bool body_seen_ = false;
  mutable bool ok_seen_ = false;
};

}  // namespace

Stamp Probe::stamp() const {
  Stamp s;
  s.t = std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
  if (traced_) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.u.user_s = seconds(ru.ru_utime);
    s.u.sys_s = seconds(ru.ru_stime);
    s.u.nvcsw = ru.ru_nvcsw;
    s.u.minflt = ru.ru_minflt;
  }
  return s;
}

harness::ExperimentResult run_cell(const harness::ExperimentCell& cell,
                                   const Probe& probe, CellMarks& marks) {
  std::unique_ptr<dsm::App> app = apps::make_app(cell.app, cell.scale);
  TimedApp timed_app(*app, probe, marks);
  policy::ProtocolInstance inst = policy::make_instance(cell.protocol);
  const dsm::ProtocolSuite inner = inst.suite();
  const dsm::ProtocolSuite suite{
      inner.name, [&](dsm::Machine& m, ProcId p) {
        marks.make_begin.push_back(probe.stamp());
        std::unique_ptr<dsm::Protocol> proto = inner.make(m, p);
        marks.make_end.push_back(probe.stamp());
        return proto;
      }};
  dsm::RunConfig cfg;
  cfg.params = cell.params;
  cfg.seed = cell.seed;

  harness::ExperimentResult out;
  marks.run_app_entry = probe.stamp();
  out.stats = dsm::run_app(timed_app, suite, cfg);
  marks.run_app_return = probe.stamp();
  out.aec = inst.aec_shared();
  out.tm = inst.tm_shared();
  out.erc = inst.erc_shared();
  out.lap_scores = harness::lap_scores_of(out);
  out.aec.reset();
  out.tm.reset();
  out.erc.reset();
  marks.complete = true;
  return out;
}

}  // namespace perfbench
