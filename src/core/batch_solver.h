// Batch evaluation path through the analytic solver (the "schedule" half
// of a Halide-style algorithm/schedule split).
//
// core/solver.h stays the readable reference implementation of the paper's
// closed forms: every Table 1/2/6 term is a virtual call into the comm
// backend at its point of use. That costs ~4 virtual dispatches plus two
// node-map integer divisions per cell of the O(n*m) pipeline-fill
// recurrence — fine for one evaluation, ruinous for a million-point sweep.
//
// BatchEval compiles a sweep into a plan first and then evaluates points
// against the plan:
//
//  * per-machine terms (backend construction, every L/o/g/G-derived
//    message cost) are resolved once per *unique machine* via
//    add_machine() and shared by every point that references it;
//  * per-app terms (validation, ndiag/nfull/nsweeps, tiles-per-stack,
//    timestep repetition factor) are resolved once per *unique app* via
//    add_app();
//  * per-point, the r2 recurrence runs over a table of eight
//    pre-evaluated costs — {TotalComm, Receive, Send} x {east-west,
//    north-south} x {on-chip, off-node} — indexed by two precomputed
//    placement-parity bitmaps, because on a cx x cy node rectangle the
//    east/west placement of a message depends only on which column pair
//    it crosses and the north/south placement only on which row pair
//    (topology/node_map.h). The bitmaps are built with a wrapping counter,
//    not a division per column;
//  * the recurrence itself runs as a wavefront (src/kernels/
//    fill_recurrence.h): row 1 is one register-held chain, rows 2..m go
//    in skewed blocks of eight so each block carries eight independent
//    west chains, and only the block's last row is stored, into one
//    (n+1)-entry row buffer. No virtual calls, no divisions, no n*m table;
//  * the r5 roll-up over a whole batch runs as element-wise loops over
//    structure-of-arrays doubles (src/kernels/batch_terms.h), which the
//    compiler vectorizes.
//
// Correctness contract: results are BYTE-identical to Solver::evaluate on
// every point. The plan only pre-evaluates the exact double values the
// scalar path's virtual calls would return and replays them in the scalar
// path's exact TimeSplit operation order; no term is algebraically
// reassociated. The wavefront schedule changes when each cell runs, never
// what it computes. tests/test_batch_solver.cpp enforces this with memcmp,
// on pinned grids, on every block edge and on seeded random draws.
//
// Thread-safety: add_app()/add_machine() mutate the plan and must finish
// before evaluation starts; evaluate_point() and evaluate() are const and
// safe to call concurrently (each caller brings its own BatchScratch).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/solver.h"
#include "kernels/fill_recurrence.h"

namespace wave::core {

/// One point of a compiled batch: which plan app + machine, which grid.
struct BatchPoint {
  std::uint32_t app = 0;      ///< index returned by BatchEval::add_app
  std::uint32_t machine = 0;  ///< index returned by BatchEval::add_machine
  topo::Grid grid{1, 1};
};

/// Reusable per-thread workspace for evaluate_point: the r2 row buffer
/// (n+1 entries; the recurrence keeps only one row in memory) and the two
/// placement-parity bitmaps. Keeping it outside the call makes the hot loop
/// allocation-free after the first (largest-grid) point.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class BatchEval;
  std::vector<kernels::FillTime> row_;  ///< [i] = StartP(i, current row)
  std::vector<std::uint8_t> col_pair_;  ///< [i] = columns i-1,i share a node
  std::vector<std::uint8_t> row_pair_;  ///< [j] = rows j-1,j share a node
};

/// Structure-of-arrays results of BatchEval::evaluate: one contiguous
/// double array per model term lane, so downstream consumers (benches,
/// sweeps, the r5 kernels themselves) stream them without pointer chasing.
/// at(k) reconstructs the scalar-identical ModelResult for point k.
struct BatchResults {
  std::vector<topo::Grid> grids;

  std::vector<double> w, wpre;                     // r1b / r1a
  std::vector<int> msg_bytes_ew, msg_bytes_ns;
  std::vector<double> diag_total, diag_comm;       // r3a
  std::vector<double> full_total, full_comm;       // r3b
  std::vector<double> stack_total, stack_comm;     // r4
  std::vector<double> nonwf_total, nonwf_comm;     // Tnonwavefront
  std::vector<double> fill_total, fill_comm;       // r5 fill share
  std::vector<double> iter_total, iter_comm;       // r5
  std::vector<double> step_total, step_comm;       // timestep roll-up
  std::vector<int> iterations_per_timestep, energy_groups;

  std::size_t size() const { return grids.size(); }
  ModelResult at(std::size_t k) const;
};

/// The batch planner/evaluator. Construction binds a comm-model registry
/// (resolving each unique machine's backend once); add_app/add_machine
/// grow the plan with memoized per-axis entries; evaluate_point and
/// evaluate run the compiled fast path.
class BatchEval {
 public:
  /// @param registry resolves MachineConfig::comm_model names, exactly as
  ///   the registry-taking Solver constructor does. Must outlive the plan.
  explicit BatchEval(const loggp::CommModelRegistry& registry);

  /// @brief Interns `app` into the plan: validates it and derives the
  ///   sweep-structure counts once. Returns the existing id when an equal
  ///   app was already added (memoized on the app axis).
  /// @throws common::contract_error when the app is out of domain.
  std::uint32_t add_app(const AppParams& app);

  /// @brief Interns `machine`: validates it and constructs its comm
  ///   backend once. Returns the existing id when an equal machine was
  ///   already added (memoized on the machine axis).
  /// @throws common::contract_error when the machine is out of domain or
  ///   its comm_model names no registered backend.
  std::uint32_t add_machine(const MachineConfig& machine);

  std::size_t app_count() const { return apps_.size(); }
  std::size_t machine_count() const { return machines_.size(); }

  /// The interned values and the backend a plan machine resolved to
  /// (shared with every point referencing it).
  const AppParams& app(std::uint32_t id) const { return apps_[id].app; }
  const MachineConfig& machine(std::uint32_t id) const {
    return machines_[id].machine;
  }
  const loggp::CommModel& comm(std::uint32_t id) const {
    return *machines_[id].comm;
  }

  /// @brief Evaluates one point through the fast path into `res`,
  ///   byte-identical to Solver(app, machine, registry).evaluate(grid).
  /// @param scratch caller-owned workspace, reused across calls (one per
  ///   thread under concurrency).
  void evaluate_point(const BatchPoint& point, BatchScratch& scratch,
                      ModelResult& res) const;

  /// @brief Evaluates every point into structure-of-arrays lanes; the r5
  ///   roll-ups run vectorized over the whole batch (kernels/batch_terms).
  BatchResults evaluate(std::span<const BatchPoint> points) const;

 private:
  struct AppEntry {
    AppParams app;
    // Sweep/timestep factors hoisted out of the per-point loop; exactly
    // the doubles the scalar r5 assembly converts from ints per call.
    double ndiag = 0.0;
    double nfull = 0.0;
    double nsweeps = 0.0;
    double tiles = 0.0;  ///< tiles_per_stack()
    double reps = 1.0;   ///< iterations_per_timestep * energy_groups
  };
  struct MachineEntry {
    MachineConfig machine;
    std::shared_ptr<const loggp::CommModel> comm;
  };

  /// Everything except the r5 assembly (which evaluate() runs over SoA and
  /// evaluate_point() runs inline, in the identical operation order).
  void evaluate_terms(const BatchPoint& point, BatchScratch& scratch,
                      ModelResult& res) const;

  const loggp::CommModelRegistry* registry_;
  std::vector<AppEntry> apps_;
  std::vector<MachineEntry> machines_;
};

}  // namespace wave::core
