// The pipeline-fill recurrence (r2a)/(r2b) of the batch analytic solver
// (core/batch_solver.h), as a wavefront over skewed row blocks.
//
// StartP(i,j) takes the later of two candidates: its west neighbour's
// start plus the east-west message, and its north neighbour's start plus
// the north-south message (core/solver.cpp is the readable reference). A
// row-major walk makes every cell wait on its west neighbour's chain of
// dependent adds. Here row 1 runs as one chain held in registers, and rows
// 2..m run in blocks of rows skewed by one column per row: at step t, row
// j0+r of the block computes column t-r. The rows of a block are
// independent west chains, and row r's north input is the value row r-1
// produced one step earlier, so only the block's last row is written back
// to memory.
//
// Three schedules run the recurrence. The first two share that wavefront
// and differ in what a vector lane holds; the third runs several fills
// side by side:
//
//  * packed lanes (any CPU): each value is one 2-lane vector
//    {total, comm}, and a block has up to kFillRows rows. The tile's work
//    is one add of {w, 0.0} and a message cost t one add of {t, t}, five
//    vector adds per cell where the scalar form needs ten. When every
//    cost is >= 0, the west candidate's compare with the -1.0 sentinel,
//    which it then always wins, is skipped;
//  * row lanes (AVX-512F/VL, picked at run time): one 8-lane vector holds
//    the totals of eight consecutive rows and a second their comm shares,
//    and a block has up to kRowLaneVectors such pairs. Lanes sit at
//    different columns, so the per-column costs are read from reversed
//    arrays, and a row's north input is its neighbour lane from the
//    previous step, shifted in with one lane shuffle. The step waits on
//    its chain of adds, so two or three vector pairs cost about what one
//    does, and one row-lane cell costs about half a packed one. It runs
//    only when every cost is finite and >= 0, on grids with n and m at
//    least kRowLanesMinRows;
//  * point lanes (AVX-512F/VL): up to kPointLanesMaxFills independent
//    fills that share n x m run together, one fill per lane of one or two
//    interleaved 8-lane vector pairs, each with its own costs and node
//    shape. Every lane has the same n and m, so control flow stays
//    uniform. The walk is plain, not skewed: the short side runs innermost
//    and its latest cells stay in registers. It serves the thin grids
//    (min(n, m) < kRowLanesMinRows), where a skewed block has too few rows
//    to fill a vector and each fill is one long chain of dependent adds.
//
// Neither solver runs the recurrence on single-core nodes (cx = cy = 1),
// where fill_closed_form gives its two corners in O(1), nor on 2-D nodes
// (cx, cy >= 2), where fill_candidate_columns gives them in O(m * cx).
// core::Solver and core::BatchEval both call fill_without_recurrence under
// closed_form_applies. Only 1 x P and P x 1 nodes (xt4-dual) and costs
// outside that test (negative, NaN, infinite) still run a schedule below.
//
// The kernel sees plain doubles and the two placement-parity bitmaps, so
// src/kernels/ stays independent of core/. It lives here so the
// WAVE_NATIVE_SIMD build (see CMakeLists.txt) compiles it with
// -march=native -ffp-contract=off like the other kernels. The recurrence
// does only adds and compares, which no contraction can touch; the closed
// form and the candidate columns multiply, and each is one out-of-line
// function in this TU, so no caller can contract its multiply-adds
// differently from another.
//
// Bit identity: every lane performs the scalar solver's TimeSplit adds in
// the scalar operand order. Every cell picks its winner on the total with
// the strict `>`, so on a tie the west candidate wins; a cell with no west
// neighbour takes its north candidate, as it does against the scalar
// solver's -1.0 sentinel when costs are >= 0. The row lanes pad the absent
// east send of column n with -0.0 (x + -0.0 == x for every x), select
// column 1's north candidate with a lane mask, and let idle ramp lanes
// compute on padding that no active lane reads. The point lanes read a
// lane's placement from period tables instead of the bitmaps (cx and cy
// are powers of two, so columns i-1 and i share a node exactly when
// ((i - 1) & (cx - 1)) != 0), make no add for column n's absent east send
// (every lane is at the same column), keep the -1.0 sentinel compare
// unless every lane's costs are >= 0, and give unused lanes the inputs of
// their vector's first lane. A schedule only changes which cells are
// computed when, never what a cell computes.
#pragma once

#include <cstdint>
#include <vector>

namespace wave::kernels {

/// Rows per skewed block of the packed schedule: one independent west
/// chain per row. With packed lanes six ran 5-10% faster than eight on
/// tall grids and as fast as five (docs/PERFORMANCE.md). A block is never
/// taller than the grid is wide, since at most n rows can be at distinct
/// columns.
inline constexpr int kFillRows = 6;

/// Doubles per row-lane vector, and vector pairs per row-lane block: a
/// block holds up to 8 x 3 = 24 rows.
inline constexpr int kRowLaneWidth = 8;
inline constexpr int kRowLaneVectors = 3;

/// The fewest rows m (and columns n) for which fill_recurrence picks the
/// row lanes. fill_row_lanes runs blocks of at least kRowLanesMinRows - 1
/// rows, two or three vector pairs; fewer rows go to the packed lanes. At
/// m = 12 the row lanes read 1.1x the packed lanes per cell, at m >= 15
/// 1.4x and more (docs/PERFORMANCE.md).
inline constexpr int kRowLanesMinRows = 12;

/// Fills per point-lane vector, one per lane, and per fill_point_lanes
/// call: two vectors.
inline constexpr int kPointLaneWidth = 8;
inline constexpr int kPointLanesMaxFills = 2 * kPointLaneWidth;

/// A start time and its communication share (core::TimeSplit's layout).
struct FillTime {
  double total = 0.0;
  double comm = 0.0;
};

/// StartP(1, m) and StartP(n, m): all of a fill that (r3a)/(r3b) use.
struct FillCorners {
  FillTime diag, full;
};

/// The per-point inputs of the recurrence. Each cost pair is indexed
/// [off-node = 0, on-chip = 1], the value of a parity bitmap entry.
struct FillCosts {
  double w = 0.0;     ///< (r1b) work per tile after the receives
  double wpre = 0.0;  ///< (r1a) work per tile before them: StartP(1,1)
  double total_ew[2] = {0.0, 0.0};  ///< TotalComm of an east-west message
  double recv_ns[2] = {0.0, 0.0};   ///< Receive of a north-south message
  double send_ew[2] = {0.0, 0.0};   ///< Send of an east-west message
  double total_ns[2] = {0.0, 0.0};  ///< TotalComm of a north-south message
};

/// One fill of a point-lane batch: everything it reads but the grid.
struct FillPoint {
  FillCosts costs;
  int cx = 1;  ///< node columns, a power of two
  int cy = 1;  ///< node rows, a power of two
};

/// Eight doubles, one per point lane: one vector load.
struct alignas(64) FillLaneValues {
  double lane[kPointLaneWidth];
};

/// The point-lane schedule's workspace, reused across calls: the per-lane
/// costs by column and by row placement, period tables of one entry per
/// column (row) of the widest (tallest) node. The walk's latest cells
/// along the grid's short side stay in registers. The buffer grows to the
/// largest need seen and never shrinks, so calls after the largest
/// allocate nothing.
struct FillPointLanes {
  std::vector<FillLaneValues> costs;
};

/// The row-lane schedule's workspace, reused across calls: the per-column
/// east-west costs in reverse column order, padded on both sides, so that
/// the eight lanes of a vector, at columns t, t-1, ..., t-7, read their
/// costs with one load. The buffers grow to the widest grid seen and never
/// shrink, so calls after the largest allocate nothing.
struct FillRowLanes {
  std::vector<double> total_ew;  ///< TotalComm of the message into column i
  std::vector<double> send_ew;   ///< Send of the message east of column i
};

/// The widest node fill_candidate_columns takes: its column set lives on
/// the stack, 2 * kCandidateMaxCx + 2 entries.
inline constexpr int kCandidateMaxCx = 64;

/// True when a fill's corners come without the recurrence
/// (fill_without_recurrence): single-core nodes (cx = cy = 1) whose six
/// off-node inputs (w, wpre and the four off-node costs) are finite and
/// >= 0, or 2-D nodes (cx, cy >= 2, cx <= kCandidateMaxCx) whose ten
/// inputs are. core::Solver and core::BatchEval both route through this
/// test, so a point takes the same route on both. 1 x P and P x 1 nodes
/// keep the recurrence (see the definition).
bool closed_form_applies(const FillCosts& costs, int cx, int cy);

/// @brief StartP(1, m) and StartP(n, m) of (r2) on single-core nodes, in
///   O(1). Every message is off-node, so a path's length is linear in two
///   counts: its east hops in row 1 (k) and its south hops in column n
///   (l). With a1 = TotalComm_ew, a = a1 + Receive_ns, bn = TotalComm_ns
///   and b = Send_ew + bn, a path takes wpre + (n + m - 2) * w of work and
///   k * a1 + (n - 1 - k) * a + l * bn + (m - 1 - l) * b of communication.
///   The path along row 1 and down column n is (n - 1, m - 1); every other
///   path has k <= n - 2 and l <= m - 2, and each such pair is a path, so
///   the longest lies at a corner of that box. StartP(n, m) is the longest
///   of (n - 1, m - 1), (0, 0), (0, m - 2), (n - 2, 0) and (n - 2, m - 2),
///   the first in that order on a tie. StartP(1, m) is the one path down
///   column 1, (m - 1) * b of communication (bn when n = 1).
///   The recurrence sums each path hop by hop, so the two agree within its
///   rounding, (3 (n + m - 2) + 1) * 2^-53 relative, not bit for bit.
/// @pre closed_form_applies(costs, 1, 1); the on-chip costs are not read.
FillCorners fill_closed_form(const FillCosts& costs, int n, int m);

/// @brief StartP(1, m) and StartP(n, m) of (r2) on any cx x cy node, in
///   O(m * cx). Every path pays wpre + (n + m - 2) * w, one TotalComm_ew per
///   column boundary and one TotalComm_ns per row boundary (off-node at a
///   node's edge). The rest depends on the route: f(j) per east hop in
///   row j (Receive_ns of row pair j, 0 in row 1) and g(i) per south hop in
///   column i (Send_ew of column pair i + 1, 0 in column n). With x_j the
///   column where the path leaves row j, that part telescopes to
///   sum_j (f(j) - f(j + 1)) * x_j + g(x_j), and g has period cx on
///   columns 1..n-1, so moving a run of rows that share a turn column by
///   +-cx leaves every g as it was and changes the sum linearly: some
///   longest path turns only in columns <= cx + 1 or >= n - cx. A DP over
///   rows on those at most 2 cx + 2 columns finds it (docs/MODEL.md).
///   StartP(1, m) is the one path down column 1. With dyadic costs every
///   sum is exact and the corners equal the recurrence's bit for bit;
///   otherwise they agree within its rounding.
/// @pre closed_form_applies(costs, cx, cy).
FillCorners fill_candidate_columns(const FillCosts& costs, int cx, int cy,
                                   int n, int m);

/// The corners on the route closed_form_applies admits: the five-path
/// closed form on single-core nodes, the candidate columns elsewhere.
inline FillCorners fill_without_recurrence(const FillCosts& costs, int cx,
                                           int cy, int n, int m) {
  return cx == 1 && cy == 1 ? fill_closed_form(costs, n, m)
                            : fill_candidate_columns(costs, cx, cy, n, m);
}

/// @brief Runs (r2) over an n x m grid, on the row lanes when this CPU
///   has AVX-512F/VL, n and m are both >= kRowLanesMinRows and every cost
///   is finite and >= 0, and on the packed lanes otherwise. Both give the
///   same bits.
/// @param col_pair [i] for 2 <= i <= n: columns i-1 and i share a node.
/// @param row_pair [j] for 2 <= j <= m: rows j-1 and j share a node.
/// @param lanes the row-lane workspace (untouched on the packed path).
/// @param row n+1 entries of workspace; on return row[i] = StartP(i, m)
///   for 1 <= i <= n (row[0] is not used).
void fill_recurrence(const FillCosts& costs, const std::uint8_t* col_pair,
                     const std::uint8_t* row_pair, int n, int m,
                     FillRowLanes& lanes, FillTime* row);

/// @brief The packed-lane schedule alone, for any costs.
void fill_packed_lanes(const FillCosts& costs, const std::uint8_t* col_pair,
                       const std::uint8_t* row_pair, int n, int m,
                       FillTime* row);

/// True when this CPU runs fill_row_lanes and fill_point_lanes (AVX-512F
/// and AVX-512VL), checked once per process.
bool has_row_lanes();

/// @brief The row-lane schedule alone, on any grid: row 1 and the rows
///   left after its blocks run on the packed lanes.
/// @pre has_row_lanes(), and every cost is >= 0 (+inf allowed, NaN not).
void fill_row_lanes(const FillCosts& costs, const std::uint8_t* col_pair,
                    const std::uint8_t* row_pair, int n, int m,
                    FillRowLanes& lanes, FillTime* row);

/// @brief The point-lane schedule on a thin grid: fills[k]'s corners into
///   out[k], for k < count, each bit-identical to fill_packed_lanes on
///   that fill's costs and the parity bitmaps of its node shape. Fills
///   beyond the first eight take a second vector, which runs interleaved
///   with the first when every cost is >= 0.
/// @pre has_row_lanes(), 1 <= count <= kPointLanesMaxFills,
///   min(n, m) < kRowLanesMinRows, and every cx and cy a power of two.
///   Any costs; the sentinel compare is skipped only when every fill's ten
///   costs are >= 0.
void fill_point_lanes(const FillPoint* const* fills, int count, int n, int m,
                      FillPointLanes& lanes, FillCorners* out);

}  // namespace wave::kernels
