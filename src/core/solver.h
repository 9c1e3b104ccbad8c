// The plug-and-play LogGP model solver (paper §4.2 Table 5, §4.3 Table 6).
//
// Given the Table 3 application parameters, a machine description, and a
// processor count, the solver evaluates:
//   r1a/r1b — per-tile work Wpre and W,
//   r2a/r2b — the pipeline-fill recurrence StartP over the m×n grid, with
//             per-position on-chip/off-node communication costs on
//             multi-core nodes (Table 6 top); on single-core nodes, where
//             every message is off-node, its two corners in closed form,
//   r3a/r3b — Tdiagfill = StartP(1,m), Tfullfill = StartP(n,m),
//   r4      — Tstack, the time to drain a stack of tiles, using off-node
//             costs plus the shared-bus contention additions (Table 6
//             bottom),
//   r5      — time per iteration
//             = ndiag*Tdiagfill + nfull*Tfullfill + nsweeps*Tstack
//               + Tnonwavefront.
//
// Every quantity is tracked as a (total, communication) pair so the Fig 11
// computation/communication breakdown falls out of the same evaluation:
// "The communication component of the total execution time is derived from
// the Send, Receive, TotalComm and Tallreduce execution time terms in the
// model. The computation component is the rest."
#pragma once

#include <memory>

#include "core/app_params.h"
#include "core/machine.h"
#include "kernels/fill_recurrence.h"
#include "loggp/comm_model.h"
#include "topology/grid.h"

namespace wave::loggp {
class CommModelRegistry;
}  // namespace wave::loggp

namespace wave::core {

/// A duration along the critical path, split into its communication part
/// (Send/Receive/TotalComm/all-reduce terms) and the computation remainder.
struct TimeSplit {
  usec total = 0.0;
  usec comm = 0.0;

  usec compute() const { return total - comm; }

  TimeSplit& operator+=(const TimeSplit& o) {
    total += o.total;
    comm += o.comm;
    return *this;
  }
  friend TimeSplit operator+(TimeSplit a, const TimeSplit& b) { return a += b; }
  friend TimeSplit operator*(double k, const TimeSplit& t) {
    return {k * t.total, k * t.comm};
  }
};

/// Everything the model derives for one (application, machine, grid) choice.
struct ModelResult {
  topo::Grid grid{1, 1};  ///< the n×m decomposition evaluated

  usec w = 0.0;     ///< (r1b) work per tile after the receives
  usec wpre = 0.0;  ///< (r1a) work per tile before the receives

  int msg_bytes_ew = 0;
  int msg_bytes_ns = 0;

  TimeSplit t_diagfill;      ///< (r3a)
  TimeSplit t_fullfill;      ///< (r3b)
  TimeSplit t_stack;         ///< (r4)
  TimeSplit t_nonwavefront;  ///< Table 3 row Tnonwavefront
  TimeSplit iteration;       ///< (r5) time for one iteration

  /// Pipeline-fill share of one iteration:
  /// ndiag*Tdiagfill + nfull*Tfullfill (used for Fig 12).
  TimeSplit fill;

  /// Time for one full time step:
  /// iteration * iterations_per_timestep * energy_groups.
  usec timestep() const { return timestep_split().total; }
  TimeSplit timestep_split() const;

  int iterations_per_timestep = 1;
  int energy_groups = 1;
};

// The model's terms around r2. On single-core nodes (cx = cy = 1) and on
// 2-D nodes (cx, cy >= 2) Solver::evaluate and BatchEval (batch_solver.h)
// both take the fill's corners from one kernel function without the
// recurrence (kernels::fill_without_recurrence, under
// kernels::closed_form_applies): an O(1) closed form on single-core
// nodes, a DP on at most 2 cx + 2 candidate columns, O(m * cx), on 2-D
// ones. On 1 x P and P x 1 nodes Solver::evaluate runs the r2 fill as a
// readable row-major loop and BatchEval as a wavefront kernel. Both wrap
// it in these functions, so every other term has one copy. The batch
// fast path calls them per point: keep them free of allocation and
// virtual calls beyond the backend's own.

/// @brief (r1a)/(r1b), the two message sizes and the result's bookkeeping
///   for `grid`: a fresh result holding everything the model derives
///   before the r2 fill.
ModelResult evaluate_r1(const AppParams& app, const topo::Grid& grid);

/// @brief Sender-side cost of one boundary send. With the nonblocking-sends
///   design variant the rendezvous handshake overlaps the next tile's
///   computation, so only the CPU injection overhead remains on the
///   critical path.
usec send_cost(const AppParams& app, const MachineConfig& machine,
               const loggp::CommModel& comm, int bytes,
               loggp::Placement where);

/// @brief The ten inputs of the r2 fill for `r1`'s grid (an evaluate_r1
///   result): w, wpre, and TotalComm_ew, Receive_ns, Send_ew (send_cost)
///   and TotalComm_ns for both placements, exactly the doubles the
///   recurrence's backend calls return.
kernels::FillCosts fill_costs(const AppParams& app,
                              const MachineConfig& machine,
                              const loggp::CommModel& comm,
                              const ModelResult& r1);

/// @brief One bulk-synchronous halo swap on `grid` (LU's between-iteration
///   stencil, the halo2d workload). Every rank swaps with all its
///   neighbours at once, so an interior rank's critical path pays one
///   Send plus the opposite message's TotalComm per direction pair:
///   E/W with `bytes_ew`, N/S with `bytes_ns`. A direction with no
///   neighbour (one column, or one row) is free, and one that fits inside
///   a node's cx × cy rectangle (n <= cx, or m <= cy) is on-chip.
usec halo_time(const MachineConfig& machine, const loggp::CommModel& comm,
               const topo::Grid& grid, int bytes_ew, int bytes_ns);

/// @brief Tnonwavefront, the between-iteration phase, on the grid and
///   message sizes of `r1` (an evaluate_r1 result).
TimeSplit nonwavefront_time(const AppParams& app,
                            const MachineConfig& machine,
                            const loggp::CommModel& comm,
                            const ModelResult& r1);

/// @brief Completes `res` (an evaluate_r1 result) from the two r2 corners
///   StartP(1, m) and StartP(n, m): (r3a)/(r3b) with the synchronization
///   terms, (r4), Tnonwavefront and (r5).
void evaluate_r3_r5(const AppParams& app, const MachineConfig& machine,
                    const loggp::CommModel& comm, const TimeSplit& diag_fill,
                    const TimeSplit& full_fill, ModelResult& res);

/// Evaluates the plug-and-play model. Immutable after construction; cheap
/// to copy (copies share the immutable comm backend); evaluate() is const
/// and thread-safe.
///
/// The communication submodel is chosen at runtime by
/// MachineConfig::comm_model (see loggp/registry.h). Backends that fold
/// shared-bus interference into every message cost
/// (CommModel::models_bus_contention) suppress the solver's own Table-6
/// stack-phase contention additions so interference is charged once.
class Solver {
 public:
  /// @brief Resolves machine.comm_model through the given registry (a
  ///   wave::Context's scoped registry, usually).
  /// @throws common::contract_error when the app or machine is out of
  ///   domain, or machine.comm_model names no registered backend.
  Solver(AppParams app, MachineConfig machine,
         const loggp::CommModelRegistry& registry);

  /// @brief Evaluates through an already-constructed backend (must match
  ///   the assumptions of machine.comm_model; the facade resolves it once
  ///   and shares it across points).
  Solver(AppParams app, MachineConfig machine,
         std::shared_ptr<const loggp::CommModel> comm);

  /// @brief Non-owning variant of the above for callers handed a backend
  ///   by reference (the Workload::predict hook): `comm` must outlive the
  ///   solver.
  Solver(AppParams app, MachineConfig machine, const loggp::CommModel& comm);

  const AppParams& app() const { return app_; }
  const MachineConfig& machine() const { return machine_; }

  /// @brief The communication backend evaluating this machine.
  const loggp::CommModel& comm() const { return *comm_; }

  /// Evaluates on the closest-to-square decomposition of `processors` MPI
  /// ranks (one rank per core).
  ModelResult evaluate(int processors) const;

  /// Evaluates on an explicit decomposition.
  ModelResult evaluate(const topo::Grid& grid) const;

 private:
  AppParams app_;
  MachineConfig machine_;
  std::shared_ptr<const loggp::CommModel> comm_;
};

}  // namespace wave::core
