// The benchmark's workloads, spelled out cell by cell in this file so that a
// later edit to a program under bench/ or to a registry cannot change what is
// measured. README.md says why each workload was chosen.
#pragma once

#include <cstdint>
#include <string>

#include "harness/batch.hpp"

namespace perfbench {

/// The workload's cells. The seed selects one of 16 input variants (seed
/// mod 16), each checked to pass every oracle; variant 0 reproduces the
/// seeds the reference statistics were recorded with. Variant k adds k to
/// every `syn:` spec seed of mesh256; paper16 has no seed axis. Throws
/// SimError on an unknown workload name.
aecdsm::harness::ExperimentPlan build_plan(const std::string& workload,
                                           std::uint64_t seed);

/// True when `seed` changes the workload's inputs, i.e. when the recorded
/// reference statistics do not apply.
bool seed_varies_inputs(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
