// Platform description consumed by the plug-and-play solver: LogGP
// communication parameters plus the node architecture (paper §4.3).
//
// A machine is either one of the compiled-in presets below or — the
// plug-and-play path — a small key/value config file (machines/*.cfg)
// parsed at runtime, so new platforms enter a study without recompiling:
//
//   # machines/xt4-dual.cfg
//   name = xt4-dual
//   comm_model = loggp          # any name registered in loggp/registry.h
//   cx = 1                      # node rectangle in the processor grid
//   cy = 2
//   buses_per_node = 1
//   eager_limit_bytes = 1024
//   off.G = 0.0004              # Table 2, µs/byte and µs
//   off.L = 0.305
//   off.o = 3.92
//   on.Gcopy = 0.000789
//   on.Gdma = 0.000072
//   on.o = 3.80
//   on.ocopy = 1.98
//
// `#` starts a comment; `off.oh`, `off.sync` and `synchronization_terms`
// are optional and default to the XT4 assumptions (0 / 0 / false).
#pragma once

#include <cctype>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/contracts.h"
#include "common/statistics.h"
#include "loggp/comm_model.h"
#include "loggp/params.h"

namespace wave::loggp {
class CommModelRegistry;
}  // namespace wave::loggp

namespace wave::core {

/// @brief A machine = LogGP parameters + multi-core node shape + the name
///   of the communication submodel evaluating them.
///
/// Cores of one node occupy a cx × cy rectangle of the logical processor
/// grid; cores of one node share `buses_per_node` memory buses (1 on the
/// XT4; paper §5.3 evaluates 16-core nodes with one bus per four cores).
struct MachineConfig {
  /// Display name used as the axis label in sweeps ("" = unnamed).
  std::string name;

  loggp::MachineParams loggp = loggp::xt4();

  /// Registered name of the communication backend evaluating the LogGP
  /// parameters (see loggp/registry.h): "loggp", "loggps", "contention",
  /// or any backend a study registered itself.
  std::string comm_model = "loggp";

  int cx = 1;
  int cy = 1;
  int buses_per_node = 1;

  /// Include the handshake back-propagation synchronization terms of the
  /// original Sweep3D model ([3], eqs. s3/s4: (m-1)L and (n-2)L added to
  /// the sweep completion times). The paper omits them for the XT4, where
  /// L is two orders of magnitude below the SP/2's, but notes that "these
  /// previous or other synchronization terms can be incorporated in the
  /// re-usable model for other architectures, as needed" (§4.2) — enable
  /// this for SP/2-like machines.
  bool synchronization_terms = false;

  int cores_per_node() const { return cx * cy; }

  /// @brief Cores sharing one memory bus: cores_per_node / buses_per_node.
  int bus_sharers() const { return cores_per_node() / buses_per_node; }

  /// @brief Constructs this machine's communication backend from the given
  ///   registry (shared, immutable, safe to use from many threads).
  /// @throws common::contract_error when `comm_model` is not registered.
  std::shared_ptr<const loggp::CommModel> make_comm_model(
      const loggp::CommModelRegistry& registry) const;

  void validate() const {
    loggp.validate();
    // The name must survive machines/*.cfg serialization — a single line
    // with no comment marker or surrounding whitespace — so the
    // write/parse round-trip holds for every valid machine.
    WAVE_EXPECTS_MSG(
        name.find_first_of("#\r\n") == std::string::npos &&
            (name.empty() ||
             (!std::isspace(static_cast<unsigned char>(name.front())) &&
              !std::isspace(static_cast<unsigned char>(name.back())))),
        "machine name must be config-safe: one line, no '#', "
        "no leading/trailing whitespace");
    WAVE_EXPECTS_MSG(cx >= 1 && cy >= 1, "node shape factors must be >= 1");
    WAVE_EXPECTS_MSG(cx <= std::numeric_limits<int>::max() / cy,
                     "cores per node (cx * cy) must fit in an int");
    WAVE_EXPECTS_MSG(
        common::is_power_of_two(static_cast<std::size_t>(cores_per_node())),
        "the all-reduce model requires power-of-two cores per node");
    WAVE_EXPECTS_MSG(
        buses_per_node >= 1 && cores_per_node() % buses_per_node == 0,
        "buses per node must divide the core count");
    WAVE_EXPECTS_MSG(!comm_model.empty(), "comm model name must be non-empty");
  }

  friend bool operator==(const MachineConfig&, const MachineConfig&) = default;

  /// @brief Dual-core Cray XT4 node (1×2 core rectangle), the validated
  ///   platform.
  static MachineConfig xt4_dual_core() {
    MachineConfig m;
    m.name = "xt4-dual";
    m.cx = 1;
    m.cy = 2;
    return m;
  }

  /// @brief Single-core-per-node mapping on XT4 parameters (paper §4.2).
  static MachineConfig xt4_single_core() {
    MachineConfig m;
    m.name = "xt4-single";
    return m;
  }

  /// @brief IBM SP/2 as studied in [3]: one task per node, high L and o,
  ///   and the synchronization terms that were significant on that machine.
  static MachineConfig sp2_single_core() {
    MachineConfig m;
    m.name = "sp2";
    m.loggp = loggp::sp2();
    m.synchronization_terms = true;
    return m;
  }

  /// @brief A hypothetical node with `cores` cores (arranged as close to
  ///   square as possible) and the given number of buses; used for the
  ///   §5.3 design study. `cores` must be a power of two.
  static MachineConfig xt4_with_cores(int cores, int buses = 1);
};

/// @brief Error raised by the machine-config parser: unknown or duplicate
///   keys, missing required keys, malformed values, unreadable files. The
///   message names the offending key and (for parse errors) the line.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// @brief Parses machine-config text (the machines/*.cfg format above).
///
/// Required keys: the calibrated Table-2 parameters `off.G`, `off.L`,
/// `off.o`, `on.Gcopy`, `on.Gdma`, `on.o`, `on.ocopy`. Everything else is
/// optional and defaults to the XT4 single-core assumptions. Unknown keys,
/// duplicate keys and malformed values are errors — a typo must not
/// silently fall back to a default.
///
/// @param text The config body.
/// @param source Name used in error messages (file path or "<string>").
/// @param registry The comm-model registry `comm_model` must name a
///   backend of (a wave::Context's scoped registry, usually).
/// @returns The validated machine description.
/// @throws ConfigError on any syntactic or semantic problem, including an
///   unregistered `comm_model` name.
MachineConfig parse_machine_config(const std::string& text,
                                   const std::string& source,
                                   const loggp::CommModelRegistry& registry);

/// @brief Loads and parses a machine-config file. When the file does not
///   set `name`, the file's stem (basename without extension) is used.
/// @throws ConfigError when the file cannot be read or fails to parse.
MachineConfig load_machine_config(const std::string& path,
                                  const loggp::CommModelRegistry& registry);

/// @brief Serializes a machine back to config text;
///   `parse_machine_config(write_machine_config(m)) == m` for any valid m.
std::string write_machine_config(const MachineConfig& machine);

}  // namespace wave::core
