// perfbench: host-time benchmark of the simulator. One process runs one
// workload, pinned to one CPU before any thread starts, pass after pass
// for --seconds, and prints one JSON line with the metrics
// BENCHMARK.json names (end-to-end untraced, per-layer with --trace 1).
//
//   perfbench --workload paper16 --seed 0 --seconds 50 --trace 0 --reference DIR
//   perfbench --workload mesh256 --trace 1 --spans FILE --reference DIR
//   perfbench --workload mesh256 --write-reference DIR
//   perfbench --workload paper16 --selftest --reference DIR [--baseline FILE]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "harness/artifact_diff.hpp"
#include "harness/json_out.hpp"
#include "pass.hpp"
#include "primitives.hpp"
#include "workloads.hpp"

namespace {

using namespace aecdsm;
using perfbench::Metric;
using perfbench::PassResult;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 50.0;
  bool trace = false;
  std::string reference_dir;    ///< holds <workload>.json
  std::string spans_path;       ///< traced runs write their spans here
  bool pin = true;              ///< pin to one CPU (off only to show why)
  std::string write_reference;  ///< directory to record the reference into
  bool selftest = false;
  std::string baseline;  ///< committed bench_all baseline (selftest)
};

[[noreturn]] void usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload {paper16|mesh256} [--seed N]\n"
               "       [--seconds S] [--trace 0|1] [--reference DIR] [--spans FILE]\n"
               "       [--no-pin] [--write-reference DIR] [--selftest [--baseline FILE]]\n",
               argv0, problem.c_str(), argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (arg == "--no-pin") {
      o.pin = false;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0], arg + " needs a value or is unknown");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0') usage(argv[0], "bad --seed " + v);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage(argv[0], "bad --seconds " + v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage(argv[0], "--trace wants 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--reference") {
      o.reference_dir = v;
    } else if (arg == "--spans") {
      o.spans_path = v;
    } else if (arg == "--write-reference") {
      o.write_reference = v;
    } else if (arg == "--baseline") {
      o.baseline = v;
    } else {
      usage(argv[0], "unknown argument " + arg);
    }
  }
  if (o.workload.empty()) usage(argv[0], "--workload is required");
  return o;
}

/// Pin the process to the last CPU it may use, away from CPU 0 where device
/// interrupts tend to land. Must run before any thread starts: threads
/// inherit the mask at creation.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  AECDSM_CHECK_MSG(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
                   "sched_getaffinity failed");
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  AECDSM_CHECK_MSG(sched_setaffinity(0, sizeof one, &one) == 0,
                   "cannot pin to CPU " << cpu);
  std::fprintf(stderr, "[perfbench] pinned to CPU %d\n", cpu);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AECDSM_CHECK_MSG(in.good(), "cannot read " << path);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::string reference_path(const Options& o) {
  return o.reference_dir + "/" + o.workload + ".json";
}

/// Cell bytes the run must reproduce: the recorded reference when it
/// applies to this seed, else none (the first pass then sets them).
std::vector<std::string> expected_cells(const Options& o) {
  if (o.reference_dir.empty() || perfbench::seed_varies_inputs(o.workload, o.seed)) {
    return {};
  }
  return perfbench::cell_bytes(json::Value::parse(read_file(reference_path(o))));
}

/// Outcome counts over every cell run of every pass.
struct Tally {
  std::vector<std::string> expected;
  int attempted = 0;
  int failed = 0;

  void check(const harness::ExperimentPlan& plan, const PassResult& pass) {
    const std::vector<bool> ok = perfbench::cells_ok(pass, expected);
    for (std::size_t i = 0; i < ok.size(); ++i) {
      ++attempted;
      if (ok[i]) continue;
      ++failed;
      std::fprintf(stderr, "[perfbench] cell %s failed: %s\n",
                   plan.cells[i].label.c_str(),
                   pass.errors[i].empty() ? "oracle or reference mismatch"
                                          : pass.errors[i].c_str());
    }
    // Without a reference every later pass must repeat the first.
    if (expected.empty()) expected = perfbench::cell_bytes(pass.doc);
  }
};

double sum_setup(const PassResult& p) {
  double s = 0;
  for (const perfbench::CellMarks& m : p.marks) s += m.complete ? m.setup_s() : 0.0;
  return s;
}

double events_per_s(const PassResult& p) {
  double run = 0, events = 0;
  for (std::size_t i = 0; i < p.marks.size(); ++i) {
    if (!p.marks[i].complete) continue;
    run += p.marks[i].run_s();
    events += static_cast<double>(p.results[i].stats.engine_events);
  }
  return run > 0 ? events / run : 0.0;
}

double sim_mcycles(const PassResult& p) {
  double cycles = 0;
  for (const harness::ExperimentResult& r : p.results) {
    cycles += static_cast<double>(r.stats.finish_time);
  }
  return cycles / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void log_pass(const std::string& workload, std::size_t index, const PassResult& p) {
  std::fprintf(stderr,
               "[perfbench] %s pass %zu%s: wall %.4f s, setup %.4f s, document "
               "%.4f s (%zu bytes), %.0f events/s\n",
               workload.c_str(), index, p.traced ? " (traced)" : "", p.wall_s(),
               sum_setup(p), p.document_s(), p.doc_bytes, events_per_s(p));
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  json::Value out = json::Value::object();
  out["correct"] = tally.failed == 0 && tally.attempted > 0;
  out["attempted"] = tally.attempted;
  out["failed"] = tally.failed;
  json::Value values = json::Value::object();
  for (const Metric& metric : metrics) {
    json::Value v = json::Value::object();
    v["value"] = metric.value;
    v["unit"] = metric.unit;
    values[metric.name] = std::move(v);
  }
  out["metrics"] = std::move(values);
  std::printf("%s\n", out.dump(-1).c_str());
  std::fflush(stdout);
}

/// Each cell's fastest wall and run span over a run's passes. A shared host
/// has slow spells that only ever add time, and a spell can cover most of
/// a pass; the per-cell minimum keeps the quiet stretches of every pass,
/// where a median over a handful of passes cannot.
struct Fastest {
  std::vector<double> cell, run, events;
  double document = HUGE_VAL;

  void add(const PassResult& p) {
    cell.resize(p.marks.size(), HUGE_VAL);
    run.resize(p.marks.size(), HUGE_VAL);
    events.resize(p.marks.size(), 0.0);
    for (std::size_t i = 0; i < p.marks.size(); ++i) {
      const perfbench::CellMarks& m = p.marks[i];
      cell[i] = std::min(cell[i], m.end.t - m.start.t);
      if (!m.complete) continue;
      run[i] = std::min(run[i], m.run_s());
      events[i] = static_cast<double>(p.results[i].stats.engine_events);
    }
    document = std::min(document, p.document_s());
  }
  double wall_s() const {
    double s = document;
    for (double c : cell) s += c;
    return s;
  }
  /// Over the cells that completed at least once.
  double events_per_s() const {
    double e = 0, s = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i] == HUGE_VAL) continue;
      e += events[i];
      s += run[i];
    }
    return s > 0 ? e / s : 0.0;
  }
};

/// Untraced: passes while another as long as the last still fits in the
/// time, so a run ends near --seconds rather than up to a whole pass late.
/// wall_s and run_events_per_s sum each cell's fastest pass; setup_s is the
/// median over the passes.
int measure(const Options& o, const harness::ExperimentPlan& plan) {
  Tally tally{expected_cells(o)};
  Fastest fastest;
  std::vector<double> setup;
  double mcycles = 0;
  double last_s = 0;
  const double t0 = now_s();
  do {
    const PassResult p = perfbench::run_pass(plan, /*traced=*/false);
    log_pass(o.workload, setup.size(), p);
    tally.check(plan, p);
    fastest.add(p);
    setup.push_back(sum_setup(p));
    mcycles = sim_mcycles(p);
    last_s = p.wall_s();
  } while (now_s() - t0 + last_s < o.seconds);
  print_result(tally, {{"wall_s", "s", fastest.wall_s()},
                       {"setup_s", "s", median(setup)},
                       {"run_events_per_s", "1/s", fastest.events_per_s()},
                       {"peak_rss_mb", "MB", peak_rss_mb()},
                       {"sim_mcycles", "Mcycles", mcycles},
                       {"ok_frac", "fraction",
                        static_cast<double>(tally.attempted - tally.failed) /
                            static_cast<double>(tally.attempted)}});
  return 0;
}

/// Traced: untraced and traced passes alternate while another fits in the
/// time left for them (at least one of each); the per-layer metrics are
/// medians over the traced passes and the tracing overhead is the
/// difference of the two kinds' wall_s. The primitives are timed last,
/// shaped by the traced passes.
int traced(const Options& o, const harness::ExperimentPlan& plan) {
  Tally tally{expected_cells(o)};
  std::vector<double> untraced_wall, traced_wall;
  Fastest untraced_fastest, traced_fastest;
  std::vector<std::vector<Metric>> layers;
  json::Value passes = json::Value::array();
  const double t0 = now_s();
  const double primitives_s = std::clamp(o.seconds * 0.1, 0.5, 3.0);
  double last_s = 0;
  while (untraced_wall.empty() || traced_wall.empty() ||
         now_s() - t0 + last_s < o.seconds - primitives_s) {
    const bool tracing = untraced_wall.size() > traced_wall.size();
    const PassResult p = perfbench::run_pass(plan, tracing);
    last_s = p.wall_s();
    log_pass(o.workload, untraced_wall.size() + traced_wall.size(), p);
    tally.check(plan, p);
    (tracing ? traced_wall : untraced_wall).push_back(p.wall_s());
    (tracing ? traced_fastest : untraced_fastest).add(p);
    if (tracing) {
      layers.push_back(perfbench::layer_metrics(p));
      passes.append(perfbench::spans_json(plan, p));
    }
  }

  std::vector<Metric> metrics = layers.front();
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    std::vector<double> values;
    for (const std::vector<Metric>& pass : layers) values.push_back(pass[k].value);
    metrics[k].value = median(values);
  }
  const auto value_of = [&](const std::string& name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const double diffs = value_of("mem.diffs_created");
  const double mean_diff_bytes = diffs > 0 ? value_of("mem.diff_bytes") / diffs : 64.0;
  const perfbench::PrimitiveTimes prim =
      perfbench::time_primitives(plan.cells.front().params, mean_diff_bytes, primitives_s);
  const double overhead_s = traced_fastest.wall_s() - untraced_fastest.wall_s();
  const std::vector<Metric> primitives = {
      {"sim.switch_ns", "ns", prim.switch_ns},
      {"sim.event_ns", "ns", prim.event_ns},
      {"mem.diff_create_ns", "ns", prim.diff_create_ns},
      {"mem.diff_apply_ns", "ns", prim.diff_apply_ns},
      {"mem.diff_merge_ns", "ns", prim.diff_merge_ns},
      {"mem.cache_invalidate_ns", "ns", prim.cache_invalidate_ns}};
  metrics.insert(metrics.end(), primitives.begin(), primitives.end());
  metrics.push_back({"trace.overhead_s", "s", overhead_s});

  if (!o.spans_path.empty()) {
    json::Value doc = json::Value::object();
    doc["schema"] = "perfbench-spans-v1";
    doc["workload"] = o.workload;
    doc["seed"] = o.seed;
    doc["passes"] = std::move(passes);
    json::Value untraced = json::Value::array();
    for (double w : untraced_wall) untraced.append(w);
    doc["untraced_wall_s"] = std::move(untraced);
    doc["overhead_s"] = overhead_s;
    json::Value prims = json::Value::object();
    prims["mean_diff_bytes"] = mean_diff_bytes;
    for (const Metric& m : primitives) prims[m.name] = m.value;
    doc["primitives"] = std::move(prims);
    std::ofstream out(o.spans_path);
    AECDSM_CHECK_MSG(out.good(), "cannot write " << o.spans_path);
    doc.write(out);
    out << "\n";
    std::fprintf(stderr, "[perfbench] wrote spans to %s\n", o.spans_path.c_str());
  }
  print_result(tally, metrics);
  return 0;
}

int write_reference(const Options& o, const harness::ExperimentPlan& plan) {
  AECDSM_CHECK_MSG(!perfbench::seed_varies_inputs(o.workload, o.seed),
                   "references are recorded at the default seed 0");
  const PassResult p = perfbench::run_pass(plan, /*traced=*/false);
  Tally tally;
  tally.check(plan, p);
  AECDSM_CHECK_MSG(tally.failed == 0, "not recording a reference with failed cells");
  const std::string path = o.write_reference + "/" + o.workload + ".json";
  std::ofstream out(path);
  AECDSM_CHECK_MSG(out.good(), "cannot write " << path);
  p.doc.write(out, /*indent=*/-1);
  out << "\n";
  std::fprintf(stderr, "[perfbench] wrote %zu cells to %s\n", plan.cells.size(),
               path.c_str());
  return 0;
}

/// The benchmark's own checks: the forwarding wrappers leave a cell
/// byte-identical to harness::run_experiment; a traced pass's cell spans
/// are contiguous and, with harness.document, account for its wall time
/// within 1%; every cell matches the reference; and (paper16, given the
/// committed bench_all baseline) the reference agrees with the baseline on
/// every cell they share.
int selftest(const Options& o, const harness::ExperimentPlan& plan) {
  int failures = 0;
  const auto report = [&](bool pass, const std::string& what) {
    std::fprintf(stderr, "[selftest] %s %s: %s\n", o.workload.c_str(),
                 pass ? "PASS" : "FAIL", what.c_str());
    failures += pass ? 0 : 1;
  };

  const harness::ExperimentCell& cell = plan.cells.front();
  const harness::ExperimentResult direct =
      harness::run_experiment(cell.protocol, cell.app, cell.scale, cell.params, cell.seed);
  perfbench::CellMarks marks;
  const harness::ExperimentResult wrapped =
      perfbench::run_cell(cell, perfbench::Probe(false), marks);
  const auto bytes = [](const harness::ExperimentResult& r) {
    return harness::to_json(r.stats).dump(-1) + "\n" + harness::lap_json(r).dump(-1);
  };
  report(bytes(direct) == bytes(wrapped),
         "wrappers byte-identical to run_experiment on " + cell.label);

  const PassResult p = perfbench::run_pass(plan, /*traced=*/true);
  bool contiguous = p.marks.front().start.t == p.start.t &&
                    p.marks.back().end.t == p.doc_begin.t;
  double cells_s = 0;
  for (std::size_t i = 0; i < p.marks.size(); ++i) {
    const perfbench::CellMarks& m = p.marks[i];
    if (i + 1 < p.marks.size()) contiguous &= m.end.t == p.marks[i + 1].start.t;
    contiguous &= m.complete && m.start.t <= m.run_app_entry.t &&
                  m.run_app_entry.t <= m.setup_begin.t &&
                  m.setup_begin.t <= m.setup_end.t && m.setup_end.t <= m.first_body.t &&
                  m.first_body.t <= m.ok_call.t && m.ok_call.t <= m.run_app_return.t &&
                  m.run_app_return.t <= m.end.t;
    cells_s += m.end.t - m.start.t;
  }
  report(contiguous, "cell spans contiguous and nested");
  const double gap = std::fabs(cells_s + p.document_s() - p.wall_s()) / p.wall_s();
  std::ostringstream accounted;
  accounted << "cells + harness.document account for wall_s within 1% (off by "
            << gap * 100 << "%)";
  report(gap <= 0.01, accounted.str());

  Tally tally{expected_cells(o)};
  const bool referenced = !tally.expected.empty();
  tally.check(plan, p);
  report(tally.failed == 0 && referenced,
         "every cell matches its oracle and " + reference_path(o));

  if (o.workload == "paper16" && !o.baseline.empty()) {
    namespace ad = harness::artifact_diff;
    const ad::DiffResult d =
        ad::diff(ad::load_file(o.baseline), ad::load_file(reference_path(o)),
                 ad::Tolerances{}, /*subset=*/true);
    report(d.compared > 0 && d.changed.empty(),
           std::to_string(d.compared) + " paper16 reference cells identical to " +
               o.baseline + " at zero tolerance");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.pin) pin_to_one_cpu();
    const harness::ExperimentPlan plan = perfbench::build_plan(o.workload, o.seed);
    if (o.selftest) return selftest(o, plan);
    if (!o.write_reference.empty()) return write_reference(o, plan);
    return o.trace ? traced(o, plan) : measure(o, plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
