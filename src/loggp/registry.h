// Name-indexed registry of communication-model backends.
//
// The registry is what turns the comm submodel into a *runtime* choice: a
// machine config file says `comm_model = loggps`, a driver flag says
// `--comm-model=contention`, a SweepGrid axis sweeps all registered names —
// and the same solver/simulator pipeline evaluates each. The three shipped
// backends (backends.h) are pre-registered; studies can add their own
// with add() before building sweeps.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/registry.h"
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

/// @brief Instance-scoped registry of comm-model backends, keyed by name
///   (common::Registry: name rule, lookups, thread safety).
///
/// A wave::Context holds one per instance, so two embedding studies in
/// one process can register different backends without interfering.
class CommModelRegistry : public common::Registry<CommModelFactory> {
 public:
  /// @brief A fresh registry with the built-in backends pre-registered.
  CommModelRegistry();

  /// @brief Constructs the named backend.
  /// @throws common::unknown_name_error for unknown names; the message
  ///   lists the registered alternatives.
  std::unique_ptr<CommModel> make(
      const std::string& name, const MachineParams& params,
      const CommModelOptions& options = CommModelOptions()) const {
    return get(name)(params, options);
  }
};

}  // namespace wave::loggp
