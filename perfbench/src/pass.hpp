// One pass over a workload: every cell one after another (a closed loop
// with one client), then the batch document built and serialized through
// harness::BatchRunner::document. A pass is the unit the end-to-end
// metrics are taken over.
#pragma once

#include <string>
#include <vector>

#include "harness/batch.hpp"
#include "probe.hpp"

namespace perfbench {

struct PassResult {
  bool traced = false;
  Stamp start;      ///< first cell's start
  Stamp doc_begin;  ///< last cell's end
  Stamp doc_end;    ///< document serialized
  std::vector<CellMarks> marks;
  std::vector<aecdsm::harness::ExperimentResult> results;
  std::vector<std::string> errors;  ///< per cell; empty when the cell ran
  aecdsm::json::Value doc;
  std::size_t doc_bytes = 0;  ///< size of the serialized document

  double wall_s() const { return doc_end.t - start.t; }
  double document_s() const { return doc_end.t - doc_begin.t; }
};

PassResult run_pass(const aecdsm::harness::ExperimentPlan& plan, bool traced);

/// Per cell of a batch document: its label, serialized stats and LAP
/// scores — the bytes a reference pins.
std::vector<std::string> cell_bytes(const aecdsm::json::Value& doc);

/// Cells of `pass` that ran, passed their oracle and, when `expected` is
/// non-empty, reproduced those cell bytes exactly.
std::vector<bool> cells_ok(const PassResult& pass,
                           const std::vector<std::string>& expected);

/// A named metric value with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-layer metrics of one traced pass that the pass itself measures
/// (span times, resource usage and the simulator's own counters), in
/// BENCHMARK.json order.
std::vector<Metric> layer_metrics(const PassResult& pass);

/// Spans of a traced pass with their self time, for the spans file.
aecdsm::json::Value spans_json(const aecdsm::harness::ExperimentPlan& plan,
                               const PassResult& pass);

}  // namespace perfbench
