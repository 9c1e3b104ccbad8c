// Design-space exploration utilities built on the plug-and-play solver.
//
// These package the studies of paper §5 as library calls:
//   * Htile tuning (§5.1, Fig 5),
//   * platform sizing (§5.2: the smallest machine meeting a deadline).
// Each runs the analytic model a handful of times, so full scans cost
// microseconds — the "rapid evaluation" the paper advertises. Every entry
// point takes the comm-model registry resolving the machine's backend
// (a wave::Context's scoped registry, usually).
#pragma once

#include <span>
#include <vector>

#include "core/solver.h"

namespace wave::core {

/// One point of an Htile scan.
struct HtilePoint {
  double htile = 1.0;
  usec iteration = 0.0;  ///< modelled time per iteration
};

/// Result of scanning tile heights for one (application, machine, P).
struct HtileScan {
  std::vector<HtilePoint> points;
  double best_htile = 1.0;
  usec best_iteration = 0.0;
  /// Improvement of the best point over Htile = 1 (Fig 5's headline):
  /// 1 - best/at_htile_1, in [0, 1).
  double improvement_vs_unit = 0.0;
};

/// Evaluates the model at each candidate tile height. Candidates that
/// exceed the stack height Nz are skipped. Requires at least one valid
/// candidate including 1.0 (added automatically if missing).
HtileScan scan_htile(AppParams app, const MachineConfig& machine,
                     const loggp::CommModelRegistry& registry, int processors,
                     std::span<const double> candidates);

/// Default candidate set 1..10, the Fig 5 range.
HtileScan scan_htile(AppParams app, const MachineConfig& machine,
                     const loggp::CommModelRegistry& registry, int processors);

/// The smallest power-of-two processor count whose modelled time step
/// meets `timestep_seconds` (or `max_processors` if none does) — the
/// §5.2 sizing question.
int processors_for_deadline(const AppParams& app, const MachineConfig& machine,
                            const loggp::CommModelRegistry& registry,
                            double timestep_seconds, int max_processors);

}  // namespace wave::core
