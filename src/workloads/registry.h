// Name-indexed registry of paired model+simulation workloads.
//
// Mirrors loggp/registry.h on the application axis: where CommModelRegistry
// makes the *machine* submodel a runtime choice, WorkloadRegistry does the
// same for the *application* — a driver flag says `--workload=halo2d`, a
// SweepGrid axis sweeps every registered name, and the same batch pipeline
// evaluates each workload's analytic and DES paths. The six shipped
// workloads (wavefront, pingpong, halo2d, pipeline1d, sweep3d-hybrid,
// allreduce-storm) are pre-registered; studies can add their own with
// add() before building sweeps.
#pragma once

#include <memory>
#include <string>

#include "common/registry.h"
#include "workloads/workload.h"

namespace wave::workloads {

/// @brief Instance-scoped registry of workloads, keyed by name
///   (common::Registry: name rule, lookups, thread safety).
///
/// A wave::Context holds one per instance, so two embedding studies in
/// one process can register different workloads without interfering.
/// Registered workloads are shared immutable instances (every Workload
/// method is const), so one entry serves any number of concurrent
/// scenario points.
class WorkloadRegistry
    : public common::Registry<std::shared_ptr<const Workload>> {
 public:
  /// @brief A fresh registry with the built-in workloads pre-registered.
  WorkloadRegistry();

  /// @brief Registers `workload` under its own name().
  /// @throws common::contract_error when `workload` is null or its name
  ///   is taken or not a config-safe token.
  void add(std::shared_ptr<const Workload> workload);
};

/// @brief Convenience: registry.get(name).
std::shared_ptr<const Workload> get_workload(const WorkloadRegistry& registry,
                                             const std::string& name);

}  // namespace wave::workloads
