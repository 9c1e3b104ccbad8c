// The root object of the stable `wave::` embedding facade.
//
// A Context owns every piece of state a study needs — the comm-model
// registry, the workload registry, and a machine catalog (compiled-in
// presets plus any machines/*.cfg added by name or path). Nothing is
// process-global: two Contexts in one process can register different
// workloads, backends and machines without interfering, which is what
// makes the toolkit embeddable in a long-lived service.
//
//   wave::Context ctx;                      // builtins pre-registered
//   ctx.add_machine_dir("machines");        // optional: *.cfg catalog
//   auto r = ctx.query().machine("xt4-dual").processors(1024).run();
//
// Construction is cheap (registering a handful of factories); queries and
// studies borrow the Context by reference, so it must outlive them.
// Thread-safety: all const member functions (query/study/lookups) are
// safe to call concurrently; mutation (add_machine*, register_workload)
// must be externally synchronized with readers — the intended pattern is
// "configure once, then query from many threads".
//
// This header is self-contained: it depends only on the C++ standard
// library, the sibling wave/ headers, and forward declarations of
// internal types. The extension SPI (registering custom workloads or
// backends) additionally needs the internal headers named below — that
// surface is stable-in-spirit but not covered by the facade's versioning
// policy (docs/API.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "wave/optimize.h"
#include "wave/query.h"
#include "wave/status.h"
#include "wave/study.h"

namespace wave::core {
struct MachineConfig;
}  // namespace wave::core

namespace wave::loggp {
class CommModelRegistry;
}  // namespace wave::loggp

namespace wave::workloads {
class Workload;
class WorkloadRegistry;
}  // namespace wave::workloads

namespace wave {

/// @brief One catalog entry, as listed by Context::workloads(),
///   comm_models() and machines().
struct EntryInfo {
  std::string name;         ///< the lookup key
  std::string description;  ///< one line: semantics, or the config source
};

/// @brief Instance-scoped registries + machine catalog; the factory of
///   Query and Study builders.
class Context {
 public:
  /// A fresh context: the built-in comm models (loggp, loggps,
  /// contention), the built-in workloads (wavefront, pingpong, halo2d,
  /// pipeline1d, sweep3d-hybrid, allreduce-storm) and the preset machines
  /// (xt4-dual, xt4-single, sp2) are pre-registered.
  Context();
  ~Context();

  Context(Context&&) noexcept;
  Context& operator=(Context&&) noexcept;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ---- builders --------------------------------------------------------

  /// A Query bound to this context (which must outlive it).
  Query query() const;
  /// A Study bound to this context (which must outlive it).
  Study study() const;
  /// An Optimize search bound to this context (which must outlive it).
  Optimize optimize() const;

  // ---- catalogs --------------------------------------------------------

  /// Registered workloads, in registration order.
  std::vector<EntryInfo> workloads() const;
  /// Registered communication backends, in registration order.
  std::vector<EntryInfo> comm_models() const;
  /// Machine catalog: presets plus added configs, in registration order
  /// (the description names the source: "preset" or the file path).
  std::vector<EntryInfo> machines() const;

  bool has_workload(const std::string& name) const;
  bool has_comm_model(const std::string& name) const;
  bool has_machine(const std::string& name) const;

  /// Loads one machines/*.cfg and adds it to the catalog under its
  /// config name (or file stem).
  Status add_machine_file(const std::string& path);
  /// Adds every *.cfg in `dir` (sorted by filename, so catalogs are
  /// reproducible across filesystems). Not recursive.
  Status add_machine_dir(const std::string& dir);

  // ---- extension SPI (internal types; include the named headers) -------

  /// Registers a custom workload under its own name()
  /// (src/workloads/workload.h defines the interface).
  Status register_workload(std::shared_ptr<const workloads::Workload> workload);

  /// Adds a machine built in code to the catalog under machine.name
  /// (src/core/machine.h).
  Status add_machine(const core::MachineConfig& machine);

  /// This context's comm-model registry (src/loggp/registry.h) — register
  /// custom backends here before building queries.
  loggp::CommModelRegistry& comm_model_registry();
  const loggp::CommModelRegistry& comm_model_registry() const;

  /// This context's workload registry (src/workloads/registry.h).
  workloads::WorkloadRegistry& workload_registry();
  const workloads::WorkloadRegistry& workload_registry() const;

  /// Resolves a machine by catalog name or machines/*.cfg path. Internal
  /// plumbing (the facade's run() calls wrap it): throws
  /// common::unknown_name_error / core::ConfigError on failure instead of
  /// returning a Status.
  core::MachineConfig resolve_machine(const std::string& name_or_path) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wave
