#include "pass.hpp"

#include <exception>

namespace perfbench {
namespace {

using namespace aecdsm;

/// First stamp after the protocols were built: sim.start runs from here to
/// the first App::body entry.
const Stamp& protocols_built(const CellMarks& m) {
  return m.make_end.empty() ? m.setup_end : m.make_end.back();
}

json::Value span(const char* name, const std::string& label, double origin,
                 const Stamp& b, const Stamp& e, double self_s) {
  json::Value s = json::Value::object();
  s["name"] = name;
  s["cell"] = label;
  s["start_s"] = b.t - origin;
  s["dur_s"] = e.t - b.t;
  s["self_s"] = self_s;
  s["user_s"] = e.u.user_s - b.u.user_s;
  s["sys_s"] = e.u.sys_s - b.u.sys_s;
  s["nvcsw"] = e.u.nvcsw - b.u.nvcsw;
  s["minflt"] = e.u.minflt - b.u.minflt;
  return s;
}

}  // namespace

PassResult run_pass(const harness::ExperimentPlan& plan, bool traced) {
  const Probe probe(traced);
  const std::size_t n = plan.cells.size();
  PassResult pass;
  pass.traced = traced;
  pass.marks.resize(n);
  pass.results.resize(n);
  pass.errors.resize(n);
  pass.start = probe.stamp();
  Stamp boundary = pass.start;
  for (std::size_t i = 0; i < n; ++i) {
    CellMarks& m = pass.marks[i];
    m.make_begin.reserve(static_cast<std::size_t>(plan.cells[i].params.num_procs));
    m.make_end.reserve(static_cast<std::size_t>(plan.cells[i].params.num_procs));
    m.start = boundary;
    try {
      pass.results[i] = run_cell(plan.cells[i], probe, m);
    } catch (const std::exception& e) {
      // A cell that throws or deadlocks is a failed cell, not a failed run.
      pass.results[i] = harness::ExperimentResult{};
      pass.results[i].status = "failed";
      pass.errors[i] = e.what();
    }
    boundary = probe.stamp();
    m.end = boundary;
  }
  pass.doc_begin = boundary;
  pass.doc = harness::BatchRunner::document(plan, pass.results);
  pass.doc_bytes = pass.doc.dump().size();
  pass.doc_end = probe.stamp();
  return pass;
}

std::vector<std::string> cell_bytes(const json::Value& doc) {
  std::vector<std::string> out;
  for (const json::Value& c : doc.at("cells").items()) {
    out.push_back(c.at("label").as_string() + "\n" + c.at("stats").dump(-1) + "\n" +
                  c.at("lap").dump(-1));
  }
  return out;
}

std::vector<bool> cells_ok(const PassResult& pass,
                           const std::vector<std::string>& expected) {
  const std::vector<std::string> got = cell_bytes(pass.doc);
  std::vector<bool> ok(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ok[i] = pass.errors[i].empty() && pass.results[i].status == "ok" &&
            pass.results[i].stats.result_valid &&
            (expected.empty() ||
             (expected.size() == got.size() && expected[i] == got[i]));
  }
  return ok;
}

std::vector<Metric> layer_metrics(const PassResult& pass) {
  double run_s = 0, run_user = 0, run_sys = 0, start_s = 0, ctor = 0, teardown = 0,
         make = 0, app_setup = 0, ctx = 0, minflt = 0;
  RunStats sum;
  for (std::size_t i = 0; i < pass.marks.size(); ++i) {
    const CellMarks& m = pass.marks[i];
    if (!m.complete) continue;
    run_s += m.ok_call.t - m.first_body.t;
    run_user += m.ok_call.u.user_s - m.first_body.u.user_s;
    run_sys += m.ok_call.u.sys_s - m.first_body.u.sys_s;
    ctx += static_cast<double>(m.ok_call.u.nvcsw - m.first_body.u.nvcsw);
    start_s += m.first_body.t - protocols_built(m).t;
    ctor += m.setup_begin.t - m.run_app_entry.t;
    app_setup += m.setup_end.t - m.setup_begin.t;
    for (std::size_t k = 0; k < m.make_begin.size(); ++k) {
      make += m.make_end[k].t - m.make_begin[k].t;
    }
    teardown += m.run_app_return.t - m.ok_call.t;
    minflt += static_cast<double>(m.first_body.u.minflt - m.start.u.minflt);

    const RunStats& s = pass.results[i].stats;
    sum.engine_events += s.engine_events;
    sum.faults += s.faults;
    sum.sync += s.sync;
    sum.diffs += s.diffs;
    sum.msgs += s.msgs;
    sum.lockmgr += s.lockmgr;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.run_s", "s", run_s},
      {"sim.run_user_s", "s", run_user},
      {"sim.run_sys_s", "s", run_sys},
      {"sim.ctx_switches", "count", ctx},
      {"sim.start_s", "s", start_s},
      {"sim.events", "count", d(sum.engine_events)},
      {"dsm.machine_ctor_s", "s", ctor},
      {"dsm.teardown_s", "s", teardown},
      {"dsm.setup_minflt", "count", minflt},
      {"dsm.faults", "count", d(sum.faults.read_faults + sum.faults.write_faults)},
      {"dsm.lock_acquires", "count", d(sum.sync.lock_acquires)},
      {"dsm.barriers", "count", d(sum.sync.barrier_events)},
      {"policy.make_s", "s", make},
      {"apps.setup_s", "s", app_setup},
      {"mem.diffs_created", "count", d(sum.diffs.diffs_created)},
      {"mem.diffs_applied", "count", d(sum.diffs.diffs_applied)},
      {"mem.merged_diffs", "count", d(sum.diffs.merged_diffs)},
      {"mem.diff_bytes", "bytes", d(sum.diffs.diff_bytes)},
      {"net.messages", "count", d(sum.msgs.messages)},
      {"net.bytes", "bytes", d(sum.msgs.bytes)},
      {"locks.grants", "count", d(sum.lockmgr.grants)},
      {"locks.direct_handoffs", "count", d(sum.lockmgr.direct_handoffs)},
      {"locks.handoff_hops", "count", d(sum.lockmgr.handoff_hops)},
      {"harness.document_s", "s", pass.document_s()},
  };
}

json::Value spans_json(const harness::ExperimentPlan& plan, const PassResult& pass) {
  const double origin = pass.start.t;
  json::Value spans = json::Value::array();
  for (std::size_t i = 0; i < pass.marks.size(); ++i) {
    const CellMarks& m = pass.marks[i];
    const std::string& label = plan.cells[i].label;
    const double cell_s = m.end.t - m.start.t;
    if (!m.complete) {
      spans.append(span("cell", label, origin, m.start, m.end, cell_s));
      continue;
    }
    json::Value children = json::Value::array();
    double covered = 0.0;
    const auto child = [&](const char* name, const Stamp& b, const Stamp& e) {
      covered += e.t - b.t;
      children.append(span(name, label, origin, b, e, e.t - b.t));
    };
    child("dsm.machine_ctor", m.run_app_entry, m.setup_begin);
    child("apps.setup", m.setup_begin, m.setup_end);
    for (std::size_t k = 0; k < m.make_begin.size(); ++k) {
      child("policy.make", m.make_begin[k], m.make_end[k]);
    }
    child("sim.start", protocols_built(m), m.first_body);
    child("sim.run", m.first_body, m.ok_call);
    child("dsm.teardown", m.ok_call, m.run_app_return);
    spans.append(span("cell", label, origin, m.start, m.end, cell_s - covered));
    for (const json::Value& c : children.items()) spans.append(c);
  }
  spans.append(span("harness.document", plan.name, origin, pass.doc_begin, pass.doc_end,
                    pass.document_s()));
  json::Value out = json::Value::object();
  out["traced"] = pass.traced;
  out["wall_s"] = pass.wall_s();
  out["spans"] = std::move(spans);
  return out;
}

}  // namespace perfbench
