// Umbrella header for the scenario-runner subsystem: declarative sweeps
// (scenario.h), parallel batch execution (batch_runner.h), and result
// sinks (sinks.h). The bench/ and examples/ drivers include this one
// header and share the same CLI conventions:
//   --threads N          worker threads for the batch (default: all cores)
//   --csv                emit the rendered table as CSV
//   --json               emit the raw record set as JSON
//   --machine=<name|file>  replace the driver's base machine with a
//                        catalog machine (preset or discovered
//                        machines/*.cfg name) or a config file path
//   --comm-model=<name>  evaluate under the named communication backend
//                        (loggp | loggps | contention | any registered)
//   --workload=<name>    evaluate the named registered workload
//                        (wavefront | pingpong | halo2d | ... — see
//                        workloads/registry.h) on drivers that accept it
//   --list-workloads     print the workload registry (with each
//                        workload's parameter schema) and exit
//   --list-comm-models   print the comm-model registry and exit
//   --list-machines      print the machine catalog (presets + discovered
//                        machines/*.cfg) and exit
// Unknown --workload / --comm-model / --machine values are fatal: the
// driver prints the registered names and exits non-zero instead of
// throwing.
//
// Every helper resolves names against an explicit wave::Context.
#pragma once

#include "common/cli.h"
#include "runner/batch_runner.h"
#include "runner/record.h"
#include "runner/scenario.h"
#include "runner/sinks.h"
#include "runner/thread_pool.h"
#include "wave/context.h"

namespace wave::runner {

/// Batch options from the shared command-line flags.
inline BatchRunner::Options options_from_cli(const common::Cli& cli) {
  return BatchRunner::Options(
      static_cast<int>(cli.get_int("threads", 0)));
}

/// @brief The context a stand-alone driver evaluates under: a fresh
///   wave::Context (builtins + preset machines) with the ./machines
///   catalog added when that directory exists next to the CWD — so
///   --machine=<name> and --list-machines see the shipped configs when a
///   driver runs from the repository root.
wave::Context default_context();

/// @brief Applies the shared --machine=<name-or-file> / --comm-model=<name>
///   flags to a base scenario: --machine replaces `base.machine` with the
///   catalog machine or loaded config; --comm-model sets the override
///   `base.comm_model`, which wins over the machine's own choice
///   (Scenario::effective_machine) and survives machine axes. Call after
///   the driver sets its defaults. Unknown names and bad config files are
///   fatal: the driver prints the catalog and exits non-zero.
void apply_machine_cli(const common::Cli& cli, const wave::Context& ctx,
                       Scenario& base);

/// @brief Convenience overload targeting the sweep's base scenario.
inline void apply_machine_cli(const common::Cli& cli, const wave::Context& ctx,
                              SweepGrid& grid) {
  apply_machine_cli(cli, ctx, grid.base());
}

/// @brief Variant for drivers whose sweep declares its own machine axis
///   (which replaces the base machine wholesale): honours --comm-model —
///   the override survives machine axes — and prints a note on stderr
///   that --machine is ignored instead of silently discarding it.
void apply_comm_model_cli(const common::Cli& cli, const wave::Context& ctx,
                          Scenario& base);

/// @brief Convenience overload targeting the sweep's base scenario.
inline void apply_comm_model_cli(const common::Cli& cli,
                                 const wave::Context& ctx, SweepGrid& grid) {
  apply_comm_model_cli(cli, ctx, grid.base());
}

/// @brief The shared flags resolved to a concrete machine, for drivers
///   that evaluate a machine directly instead of through a sweep:
///   `fallback`, replaced by --machine, then --comm-model applied on top.
core::MachineConfig machine_from_cli(const common::Cli& cli,
                                     const wave::Context& ctx,
                                     core::MachineConfig fallback);

/// @brief Applies the shared --workload=<name> flag: sets the base
///   scenario's registered workload, routing the canned evaluators through
///   the context's workload registry. An unknown name is fatal: prints the
///   registered workloads and exits non-zero.
void apply_workload_cli(const common::Cli& cli, const wave::Context& ctx,
                        Scenario& base);

/// @brief Convenience overload targeting the sweep's base scenario.
inline void apply_workload_cli(const common::Cli& cli,
                               const wave::Context& ctx, SweepGrid& grid) {
  apply_workload_cli(cli, ctx, grid.base());
}

/// @brief For drivers whose study is inherently wavefront-shaped (the
///   figure reproductions): a given --workload is never silently
///   ignored — an unknown name is the usual fatal error, and a known one
///   exits with a pointer at the drivers that do take the flag.
void reject_workload_cli(const common::Cli& cli, const wave::Context& ctx);

/// @brief Handles the registry-listing flags: when --list-workloads,
///   --list-comm-models or --list-machines was given, prints the
///   corresponding catalog (names with one-line descriptions; workloads
///   also list their parameter schemas) to stdout and returns true — the
///   driver should then exit 0 without running its sweep.
bool handle_list_flags(const common::Cli& cli, const wave::Context& ctx);

/// @brief Handles the shared --trace-out=<file> flag: re-evaluates the
///   sweep's first Engine::Simulation point with an execution-timeline
///   capture attached and writes it as Chrome trace-event JSON (load in
///   Perfetto / chrome://tracing; schema in docs/OBSERVABILITY.md). A
///   no-op when the flag is absent; a warning when the sweep has no DES
///   point. Tracing is observation-only, so the extra run cannot perturb
///   the sweep's published records. Returns false only when the file
///   could not be written (the driver should exit non-zero).
bool write_trace_out(const common::Cli& cli, const wave::Context& ctx,
                     const SweepGrid& grid);

}  // namespace wave::runner
