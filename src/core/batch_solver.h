// Batch evaluation path through the analytic solver (the "schedule" half
// of a Halide-style algorithm/schedule split).
//
// Every term of the model but the r2 fill is core/solver.h's shared code:
// evaluate_r1 before the fill, evaluate_r3_r5 after it, send_cost for the
// message costs (fill_costs), and on single-core and 2-D nodes the r2
// fill as well (kernels::fill_without_recurrence: the closed form, or the
// candidate-column DP). Elsewhere Solver::evaluate stays the
// readable reference for r2 itself: a row-major loop making a virtual
// call into the comm backend at each point of use. That costs ~4 virtual
// dispatches plus two node-map integer divisions per cell of the O(n*m)
// pipeline-fill recurrence — fine for one evaluation, ruinous for a
// million-point sweep. Only the r2 schedule below is a replay of the
// scalar path.
//
// BatchEval compiles a sweep into a plan first and then evaluates points
// against the plan:
//
//  * per-machine terms (backend construction, every L/o/g/G-derived
//    message cost) are resolved once per *unique machine* via
//    add_machine() and shared by every point that references it;
//  * apps are validated once per *unique app* via add_app();
//  * per-point on single-core nodes, r2 is the O(1) closed form
//    (kernels::fill_closed_form): every message is off-node;
//  * per-point on 2-D nodes (cx, cy >= 2), r2 is a DP over rows on at
//    most 2 cx + 2 candidate columns (kernels::fill_candidate_columns),
//    O(m * cx): some longest path turns only near the grid's edges;
//  * per-point on 1 x P and P x 1 nodes, the r2 recurrence runs over a
//    table of eight pre-evaluated costs — {TotalComm, Receive, Send} x
//    {east-west, north-south} x {on-chip, off-node} — indexed by two
//    precomputed placement-parity bitmaps, because on a cx x cy node
//    rectangle the east/west placement of a message depends only on
//    which column pair it crosses and the north/south placement only on
//    which row pair (topology/node_map.h). The bitmaps are built with a wrapping counter,
//    not a division per column, and only when n, m, cx or cy changes;
//  * the recurrence itself runs as a wavefront (src/kernels/
//    fill_recurrence.h): row 1 is one register-held chain, rows 2..m go
//    in skewed blocks of independent west chains, and only the block's
//    last row is stored, into one (n+1)-entry row buffer. On AVX-512 CPUs
//    a grid with n, m >= 12 runs blocks of up to 24 rows, one row per
//    vector lane; elsewhere blocks of six rows, each a packed
//    {total, comm} vector. No virtual calls, no divisions, no n*m table;
//  * evaluate_group() runs that recurrence once per *distinct input* among
//    a group of points. The kernel reads only its FillCosts (ten doubles),
//    the node shape cx x cy and the grid n x m, and those repeat across
//    comm backends: loggp and loggps price a message alike unless it is
//    large enough to rendezvous on a machine with a sync overhead, and
//    contention equals loggp on single-core nodes. Inputs are compared
//    bitwise, never with == on doubles, so a shared StartP(1,m)/StartP(n,m)
//    pair is exactly what the point's own recurrence would produce;
//  * on AVX-512 CPUs, evaluate_group() then runs the distinct inputs of a
//    thin grid (min(n, m) < kernels::kRowLanesMinRows) side by side, up to
//    sixteen fills that share n x m per call, one fill per vector lane
//    (kernels::fill_point_lanes). A thin grid's fill is one long chain of
//    dependent adds that neither wavefront schedule can spread over a
//    vector, and the distinct fills of a group are independent chains.
//    runner::BatchRunner groups the points of a sweep that share an app
//    and a grid, so a group holds every machine and backend at one grid.
//
// Correctness contract: results are BYTE-identical to Solver::evaluate on
// every point. The r1 and r3-r5 terms are the same code, and so are the
// fill's costs (fill_costs). Where kernels::closed_form_applies admits a
// fill (single-core nodes with finite, >= 0 off-node costs; 2-D nodes
// with all ten costs so) both solvers take r2 from the same out-of-line
// kernel function, the closed form or the candidate columns, compiled
// once in the kernel TU. Elsewhere the plan only pre-evaluates the exact
// double values the scalar loop's virtual calls would return and replays
// them in the scalar loop's exact TimeSplit operation order; no term is
// algebraically reassociated. The wavefront schedule changes when each
// cell runs, never what it computes. tests/test_batch_solver.cpp enforces
// this with memcmp, on pinned grids, on every block edge and on seeded
// random draws.
//
// Thread-safety: add_app()/add_machine() mutate the plan and must finish
// before evaluation starts; evaluate_point() and evaluate_group() are const
// and safe to call concurrently (each caller brings its own BatchScratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

/// Reusable per-thread workspace for evaluate_point and evaluate_group: the
/// r2 row buffer (n+1 entries; the recurrence keeps only one row in
/// memory), the two placement-parity bitmaps, the row-lane kernel's
/// reversed cost arrays, the point-lane kernel's cost tables and a group's
/// distinct fill inputs. Keeping it outside the call makes the hot loop
/// allocation-free after the first (largest-grid) point. Each bitmap
/// remembers the shape it was built for and is rebuilt only when that
/// shape changes, so the fills
/// of one group, which share n, m, cx and cy, build it once.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class BatchEval;

  /// Everything the fill kernels read. Compared with memcmp, so it has no
  /// padding bytes (batch_solver.cpp checks the size).
  struct FillKey {
    kernels::FillPoint fill;  ///< the costs and the node shape cx x cy
    int n, m;
  };

  std::vector<kernels::FillTime> row_;   ///< [i] = StartP(i, current row)
  std::vector<std::uint8_t> col_pair_;   ///< [i] = columns i-1,i share a node
  std::vector<std::uint8_t> row_pair_;   ///< [j] = rows j-1,j share a node
  std::pair<int, int> col_shape_{0, 0};  ///< the (n, cx) of col_pair_
  std::pair<int, int> row_shape_{0, 0};  ///< the (m, cy) of row_pair_
  std::vector<FillKey> keys_;            ///< a group's distinct fill inputs
  std::vector<std::uint32_t> key_of_;    ///< [k] = point k's index in keys_
  std::vector<std::uint32_t> thin_;      ///< keys waiting for point lanes
  std::vector<kernels::FillCorners> corners_;  ///< [k] = fill of keys_[k]
  kernels::FillRowLanes row_lanes_;      ///< the row-lane schedule's buffers
  kernels::FillPointLanes point_lanes_;  ///< the point-lane cost tables
};

/// The batch planner/evaluator. Construction binds a comm-model registry
/// (resolving each unique machine's backend once); add_app/add_machine
/// grow the plan with memoized per-axis entries; evaluate_point and
/// evaluate_group run the compiled fast path.
class BatchEval {
 public:
  /// @param registry resolves MachineConfig::comm_model names, exactly as
  ///   the registry-taking Solver constructor does. Must outlive the plan.
  explicit BatchEval(const loggp::CommModelRegistry& registry);

  /// @brief Interns `app` into the plan, validating it once. Returns the
  ///   existing id when an equal app was already added (memoized on the
  ///   app axis).
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
  const AppParams& app(std::uint32_t id) const { return apps_[id]; }
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

  /// @brief Evaluates points[k] into results[k], each byte-identical to
  ///   evaluate_point, running the r2 recurrence once per distinct
  ///   (FillCosts, cx, cy, n, m) input of the group, compared bitwise.
  ///   Any points may form a group; fills are shared only among points on
  ///   one grid and node shape whose backends price messages alike.
  /// @return the number of recurrences run (distinct fill inputs).
  std::size_t evaluate_group(std::span<const BatchPoint> points,
                             BatchScratch& scratch,
                             std::span<ModelResult> results) const;

 private:
  struct MachineEntry {
    MachineConfig machine;
    std::shared_ptr<const loggp::CommModel> comm;
  };

  /// evaluate_r1 into `res`; returns the recurrence's inputs.
  BatchScratch::FillKey fill_input(const BatchPoint& point,
                                   ModelResult& res) const;
  /// Runs r2 on `key` in `scratch` and returns its two corners.
  static kernels::FillCorners run_fill(const BatchScratch::FillKey& key,
                                       BatchScratch& scratch);
  /// Fills every scratch.corners_[k] from scratch.keys_[k].
  static void run_fills(BatchScratch& scratch);
  /// evaluate_r3_r5 from the fill corners.
  void finish(const BatchPoint& point, const kernels::FillCorners& fill,
              ModelResult& res) const;

  const loggp::CommModelRegistry* registry_;
  std::vector<AppParams> apps_;
  std::vector<MachineEntry> machines_;
};

}  // namespace wave::core
