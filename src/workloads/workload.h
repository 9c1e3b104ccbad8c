// The pluggable workload interface (the application-side counterpart of
// loggp/comm_model.h).
//
// The paper's central claim is that its wavefront model is *plug-and-play*:
// the same machine parameters and comm-model terms predict any pipelined-
// communication code, not just the LU/Sweep3D/Chimaera stand-ins. A
// `Workload` packages one such code as a *pair* of evaluations over the
// same inputs:
//   predict  — the analytic path: closed forms / recurrences over a
//              CommModel (microseconds per point),
//   simulate — the DES path: the rank programs executed mechanistically on
//              the simulated MPI fabric (the "measurement" stand-in),
// plus a `validate()` contract that runs both and bounds their divergence
// by the workload's declared tolerance. Concrete workloads register
// themselves by name in registry.h and become selectable with
// `--workload=<name>` on every runner-based driver (see runner/runner.h).
//
// Implementations must be immutable after construction: every method is
// const and callable concurrently (the BatchRunner evaluates scenario
// points on many threads through one shared instance per registry entry).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "core/app_params.h"
#include "core/machine.h"
#include "loggp/comm_model.h"
#include "loggp/params.h"
#include "sim/mpi.h"
#include "sim/observers.h"
#include "topology/grid.h"

namespace wave::loggp {
class CommModelRegistry;
}  // namespace wave::loggp

namespace wave::workloads {

using common::usec;

/// @brief Named numeric side outputs of a workload evaluation, in insertion
///   order (the shape runner/record.h serializes).
using MetricList = std::vector<std::pair<std::string, double>>;

/// @brief Everything the DES reads of a machine: its LogGP parameters, the
///   cx × cy node rectangle ranks are packed in, and the protocol knobs
///   of its resolved comm backend. Two machines with equal SimMachines
///   simulate the same event stream; every other MachineConfig field
///   (name, buses_per_node, synchronization_terms, the backend's name)
///   only reaches the model (docs/MODEL.md, "What each side reads").
struct SimMachine {
  loggp::MachineParams loggp;
  int cx = 1;
  int cy = 1;
  sim::ProtocolOptions protocol;

  bool operator==(const SimMachine&) const = default;
};

/// @brief Validates `machine` and resolves its comm backend through
///   `registry` once, keeping what the DES reads (e.g. LogGPS charges its
///   synchronization cost on the rendezvous path, so every workload's
///   "measurement" shares the model's protocol assumptions).
/// @throws common::contract_error when the machine is invalid or its
///   backend is not registered.
SimMachine sim_machine(const core::MachineConfig& machine,
                       const loggp::CommModelRegistry& registry);

/// @brief The inputs every workload evaluates: the Table-3 application
///   parameters (wavefront-family workloads read them; others ignore most),
///   the processor decomposition, the DES repetition count, and a free-form
///   numeric parameter bag for workload-specific knobs (each workload
///   documents its keys via Workload::parameters()).
struct WorkloadInputs {
  core::AppParams app = default_app();
  topo::Grid grid{1, 1};
  int iterations = 1;  ///< DES repetitions; results are per iteration
  /// Inert instrumentation hooks for the DES path: attaching them never
  /// changes a SimOutput.
  sim::Observers observers;
  std::map<std::string, double> params;

  /// Numeric knob with a fallback (the schema default).
  double param_or(const std::string& name, double fallback) const {
    const auto it = params.find(name);
    return it == params.end() ? fallback : it->second;
  }

  /// Integer knob with a fallback (counts, sizes, plane numbers).
  /// @throws common::contract_error naming the key and the value when it
  ///   is non-finite, non-integral or outside the int range — the params
  ///   come from callers, and a silent truncation would evaluate a
  ///   different point than the one asked for.
  int int_param_or(const std::string& name, int fallback) const;

  /// The subsystem's canonical application input: Sweep3D on a 64^3 grid —
  /// small enough that every workload's DES path runs in milliseconds, big
  /// enough that pipelining and blocking behaviour are exercised.
  static core::AppParams default_app();
};

/// @brief One documented key of a workload's parameter schema.
struct ParamSpec {
  std::string name;         ///< key in WorkloadInputs::params
  double fallback = 0.0;    ///< value used when the key is absent
  std::string description;  ///< one line, shown by --list-workloads
};

/// @brief Result of the analytic path.
struct ModelOutput {
  usec time_us = 0.0;  ///< predicted time for one iteration
  usec comm_us = 0.0;  ///< communication share of time_us
  MetricList extra;    ///< workload-specific terms (fill, stack, ...)
};

/// @brief Result of the DES path.
struct SimOutput {
  usec time_us = 0.0;      ///< simulated time per iteration
  usec makespan_us = 0.0;  ///< simulated time for all iterations
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  usec bus_wait_us = 0.0;  ///< emergent shared-bus contention
  usec nic_wait_us = 0.0;  ///< emergent NIC-engine contention
  usec mpi_busy_us = 0.0;  ///< mean per-rank MPI-operation occupancy
  MetricList extra;
};

/// @brief Outcome of the model-vs-simulation contract check.
struct ValidationReport {
  ModelOutput model;
  SimOutput sim;
  double rel_error = 0.0;  ///< |model.time - sim.time| / sim.time
  double tolerance = 0.0;  ///< the workload's declared bound
  bool ok = false;         ///< rel_error <= tolerance
};

/// @brief Abstract paired model+simulation workload.
class Workload {
 public:
  virtual ~Workload() = default;

  /// @brief The registered lookup key ("wavefront", "halo2d", ...).
  virtual const std::string& name() const = 0;

  /// @brief One-line description shown by --list-workloads.
  virtual const std::string& description() const = 0;

  /// @brief The workload-specific keys read from WorkloadInputs::params
  ///   (empty when the workload is fully described by the AppParams).
  virtual std::vector<ParamSpec> parameters() const { return {}; }

  /// @brief Upper bound on the model-vs-simulation relative error the
  ///   workload promises under backends whose assumptions the mechanistic
  ///   fabric reproduces (loggp / loggps; see docs/WORKLOADS.md for why
  ///   the saturated "contention" backend is excluded from the contract).
  virtual double tolerance() const = 0;

  /// @brief Analytic path: predicts one iteration from the machine's
  ///   Table-2 parameters through the given communication backend.
  virtual ModelOutput predict(const core::MachineConfig& machine,
                              const loggp::CommModel& comm,
                              const WorkloadInputs& in) const = 0;

  /// @brief DES path: builds a sim::World (engine + MPI fabric) for the
  ///   machine, runs the workload's rank programs, and reports timing plus
  ///   fabric counters. The machine arrives as the SimMachine that
  ///   sim_machine(machine, registry) built, so the registry choice stays
  ///   with the caller, not a process-wide global.
  virtual SimOutput simulate(const SimMachine& machine,
                             const WorkloadInputs& in) const = 0;

  // ---- conveniences over the two hooks ---------------------------------

  /// @brief Constructs the machine's backend from `registry`, then
  ///   predicts through it.
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModelRegistry& registry,
                      const WorkloadInputs& in) const;

  /// @brief Builds the SimMachine through `registry`, then simulates.
  SimOutput simulate(const core::MachineConfig& machine,
                     const loggp::CommModelRegistry& registry,
                     const WorkloadInputs& in) const;

  /// @brief The contract: runs both paths on the same inputs and checks
  ///   the divergence bound. Never throws on divergence — the report says
  ///   whether the contract held (tests assert report.ok).
  ValidationReport validate(const core::MachineConfig& machine,
                            const loggp::CommModelRegistry& registry,
                            const WorkloadInputs& in) const;
};

}  // namespace wave::workloads
