// LogGP parameter derivation from ping-pong measurements (paper §3).
//
// The paper derives Table 2 from measured half-round-trip times:
//   * G is the slope of time vs message size (equal below and above the
//     eager limit off-node; two distinct slopes Gcopy/Gdma on-chip),
//   * the handshake h is the jump between 1024 and 1025 bytes,
//   * o and L come from solving eqs. (1) and (2) simultaneously
//     (off-node, with oh assumed negligible so h = 2L),
//   * ocopy and o come from solving eqs. (5) and (6) (on-chip).
// This module reproduces that derivation from any measured curve — here,
// curves produced by the simulator with optional measurement noise, and in
// principle curves measured on a real machine.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "loggp/params.h"

namespace wave::calibrate {

using common::usec;

/// One ping-pong measurement: half round-trip time for a message size.
struct Sample {
  int bytes = 0;
  usec time = 0.0;
};

/// A measured curve (sorted by size) for one placement.
using Curve = std::vector<Sample>;

/// Collects a simulated ping-pong curve over `sizes` using the given
/// ground-truth machine. When `noise` is non-null each measurement is
/// jittered with relative standard deviation `rel_noise` (timer/OS noise).
Curve measure_curve(const loggp::MachineParams& ground_truth, bool on_chip,
                    const std::vector<int>& sizes,
                    common::Rng* noise = nullptr, double rel_noise = 0.0);

/// Default measurement sizes: a dense sweep of small and large messages
/// bracketing the eager limit, as in Fig 3 (0-12 KB).
std::vector<int> default_sizes();

/// Fit quality diagnostics.
struct FitQuality {
  double r_squared_small = 0.0;  ///< line fit below the eager limit
  double r_squared_large = 0.0;  ///< line fit above the eager limit
};

/// Derives off-node {G, L, o} from a measured off-node curve (§3.1).
/// Throws if the curve lacks points on either side of the eager limit.
loggp::OffNodeParams fit_offnode(const Curve& curve, int eager_limit_bytes,
                                 FitQuality* quality = nullptr);

/// Derives on-chip {Gcopy, Gdma, o, ocopy} from an on-chip curve (§3.2).
loggp::OnChipParams fit_onchip(const Curve& curve, int eager_limit_bytes,
                               FitQuality* quality = nullptr);

/// Full Table 2 reconstruction: fits every parameter from one off-node
/// and one on-chip curve (measured or simulated) and validates the result.
loggp::MachineParams fit_machine(const Curve& offnode, const Curve& onchip,
                                 int eager_limit_bytes);

/// Parses an externally measured ping-pong curve from CSV text: one
/// `bytes,time_us` row per line; `#` comments, blank lines and one
/// optional non-numeric header row are ignored. Rows may arrive in any
/// order — the returned curve is sorted by size, as the fitters expect.
/// Malformed rows throw core::ConfigError naming `source` and the line
/// ("pingpong.csv:7: ..."), consistent with machines/*.cfg parsing.
Curve parse_curve_csv(const std::string& text, const std::string& source);

/// Loads and parses a measured-curve CSV file.
/// @throws core::ConfigError when the file cannot be read or a row is
///   malformed.
Curve load_curve_csv(const std::string& path);

}  // namespace wave::calibrate
