// The previous-generation single-sweep wavefront model, after Hoisie,
// Lubeck & Wasserman [1] (paper §2.3).
//
// That model predicts one sweep as
//   T_sweep = (pipeline-fill steps + tiles per stack) * per-step cost
// and is accurate for a single sweep — but, as the paper argues, applying
// it to a full benchmark "requires significant customization to represent
// ... the structure of the sweeps": the naive reuse charges every one of
// the nsweeps sweeps a full pipeline fill, where the real codes (and the
// plug-and-play model's nfull/ndiag inputs) pipeline most sweeps behind
// their predecessors.
//
// We implement the naive reuse faithfully so the repository can quantify
// the paper's motivating claim: the baseline matches barrier-heavy codes
// (LU, where every sweep does fully complete) and over-predicts pipelined
// ones (Sweep3D), while the plug-and-play model tracks both.
#pragma once

#include "core/app_params.h"
#include "core/machine.h"
#include "topology/grid.h"

namespace wave::core {

/// Baseline prediction for one iteration.
struct BaselineResult {
  usec step_cost = 0.0;    ///< per-wavefront-step cost (work + 4 comms)
  usec sweep_time = 0.0;   ///< (fill steps + tiles) * step_cost
  usec fill_time = 0.0;    ///< (n-1 + m-1) * step_cost, per sweep
  usec nonwavefront = 0.0;
  usec iteration = 0.0;    ///< nsweeps * sweep_time + nonwavefront
};

/// Evaluates the naive nsweeps-independent-sweeps baseline on an explicit
/// decomposition. Multi-core placement is ignored (the 2000-era model
/// predates CMP nodes); all communication is charged off-node. The
/// machine's comm backend is resolved through `registry` (a
/// wave::Context's scoped registry, usually).
BaselineResult hoisie_baseline(const AppParams& app,
                               const MachineConfig& machine,
                               const loggp::CommModelRegistry& registry,
                               const topo::Grid& grid);

}  // namespace wave::core
