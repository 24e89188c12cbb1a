// Host-time probes at the simulator's public run interfaces. A forwarding
// dsm::App and a forwarding ProtocolSuite::make mark where dsm::run_app
// enters App::setup, builds each node's protocol, starts the first
// App::body and calls App::ok(), so set-up, run and teardown are timed from
// outside without copying run_app. Every mark takes a steady-clock stamp;
// a traced probe also samples getrusage at each one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/batch.hpp"

namespace perfbench {

/// Process-wide resource usage (all threads) at one instant.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t nvcsw = 0;   ///< voluntary context switches
  std::int64_t minflt = 0;  ///< minor page faults
};

struct Stamp {
  double t = 0.0;  ///< steady-clock seconds
  Usage u;         ///< zero unless the probe is traced
};

/// The boundaries of one cell. `complete` is false when the cell threw
/// before dsm::run_app returned; its inner marks are then meaningless.
struct CellMarks {
  Stamp start;           ///< cell start, before apps::make_app
  Stamp run_app_entry;   ///< just before dsm::run_app
  Stamp setup_begin;     ///< App::setup entry
  Stamp setup_end;       ///< App::setup return
  std::vector<Stamp> make_begin;  ///< one per ProtocolSuite::make call
  std::vector<Stamp> make_end;
  Stamp first_body;      ///< first App::body entry
  Stamp ok_call;         ///< App::ok() call, right after Engine::run
  Stamp run_app_return;  ///< dsm::run_app returned
  Stamp end;             ///< cell end == next cell's start
  bool complete = false;

  double setup_s() const { return first_body.t - start.t; }
  double run_s() const { return ok_call.t - first_body.t; }
};

class Probe {
 public:
  explicit Probe(bool traced) : traced_(traced) {}

  Stamp stamp() const;

 private:
  bool traced_;
};

/// Run one cell the way harness::run_experiment does — apps::make_app,
/// policy::make_instance, dsm::run_app — with the forwarding wrappers in
/// place, filling `marks` (all but `start` and `end`, which the caller
/// stamps so consecutive cells share a boundary). Unlike run_experiment, a
/// failed oracle is reported in stats.result_valid instead of thrown. The
/// protocol handles are released before returning, after the LAP scores
/// are materialized, so their teardown falls inside the cell.
aecdsm::harness::ExperimentResult run_cell(const aecdsm::harness::ExperimentCell& cell,
                                           const Probe& probe, CellMarks& marks);

}  // namespace perfbench
