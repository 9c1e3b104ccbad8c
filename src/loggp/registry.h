// Name-indexed registry of communication-model backends.
//
// The registry is what turns the comm submodel into a *runtime* choice: a
// machine config file says `comm_model = loggps`, a driver flag says
// `--comm-model=contention`, a SweepGrid axis sweeps all registered names —
// and the same solver/simulator pipeline evaluates each. The three shipped
// backends (backends.h) are registered on first use; studies can add their
// own with CommModelRegistry::add before building sweeps.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "loggp/comm_model.h"

namespace wave::loggp {

/// @brief Backend-construction knobs that are not Table-2 parameters.
struct CommModelOptions {
  /// Cores sharing one memory bus (cores_per_node / buses_per_node); only
  /// the "contention" backend reads it.
  int bus_sharers = 1;
};

/// @brief Factory signature of a registered backend.
using CommModelFactory = std::function<std::unique_ptr<CommModel>(
    const MachineParams&, const CommModelOptions&)>;

/// @brief One registry entry, as listed by CommModelRegistry::list().
struct CommModelInfo {
  std::string name;         ///< the registered lookup key
  std::string description;  ///< one-line modelling assumption
};

/// @brief Instance-scoped registry of comm-model backends, keyed by name.
///
/// Registries are owned — a wave::Context holds one per instance, so two
/// embedding studies in one process can register different backends
/// without interfering. Construction pre-registers the three built-in
/// backends (backends.h).
///
/// Thread-safe: lookups may run concurrently from BatchRunner workers
/// (a Solver is constructed per scenario point); registration may race
/// with lookups.
class CommModelRegistry {
 public:
  /// @brief A fresh registry with the built-in backends pre-registered.
  CommModelRegistry();

  /// @brief Registers a backend under `name`.
  /// @throws common::contract_error when the name is already taken.
  void add(const std::string& name, const std::string& description,
           CommModelFactory factory);

  /// @brief True when `name` is registered.
  bool contains(const std::string& name) const;

  /// @brief Constructs the named backend.
  /// @throws common::contract_error for unknown names; the message lists
  ///   the registered alternatives.
  std::unique_ptr<CommModel> make(
      const std::string& name, const MachineParams& params,
      const CommModelOptions& options = CommModelOptions()) const;

  /// @brief All registered backends, in registration order.
  std::vector<CommModelInfo> list() const;

 private:
  struct Entry {
    CommModelInfo info;
    CommModelFactory factory;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// @brief Names of every backend registered in `registry`, in
///   registration order.
std::vector<std::string> comm_model_names(const CommModelRegistry& registry);

/// @brief The backend names of `registry` joined as "a, b, c" — the shared
///   vocabulary of every unknown-backend error message.
std::string comm_model_names_joined(const CommModelRegistry& registry);

/// @brief No-op when `name` is registered in `registry`.
/// @throws common::contract_error naming `name` and listing the
///   registered backends otherwise.
void require_comm_model(const CommModelRegistry& registry,
                        const std::string& name);

}  // namespace wave::loggp
