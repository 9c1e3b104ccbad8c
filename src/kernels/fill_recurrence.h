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
// The kernel sees plain doubles and the two placement-parity bitmaps, so
// src/kernels/ stays independent of core/. It lives here so the
// WAVE_NATIVE_SIMD build (see CMakeLists.txt) compiles it with
// -march=native -ffp-contract=off like the other kernels; it does only
// adds and compares, which no contraction can touch.
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
