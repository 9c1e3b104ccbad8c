// The pipeline-fill recurrence (r2a)/(r2b) of the batch analytic solver
// (core/batch_solver.h), as a wavefront over skewed row blocks.
//
// StartP(i,j) takes the later of two candidates: its west neighbour's
// start plus the east-west message, and its north neighbour's start plus
// the north-south message (core/solver.cpp is the readable reference). A
// row-major walk makes every cell wait on its west neighbour's chain of
// dependent adds. Here row 1 runs as one chain held in registers, and rows
// 2..m run in blocks of up to kFillRows rows skewed by one column per row:
// at step t, row j0+r of the block computes column t-r. The rows of a
// block are independent west chains, and row r's north input is the value
// row r-1 produced one step earlier, so only the block's last row is
// written back to memory.
//
// With the chains independent, the kernel is bound by add throughput, not
// latency. So each value is one 2-lane vector {total, comm}: the tile's
// work is one add of {w, 0.0} and a message cost t one add of {t, t}, five
// vector adds per cell where the scalar form needs ten. When every cost is
// >= 0, the west candidate's compare with the -1.0 sentinel, which it
// then always wins, is skipped.
//
// The kernel sees plain doubles and the two placement-parity bitmaps, so
// src/kernels/ stays independent of core/. It lives here so the
// WAVE_NATIVE_SIMD build (see CMakeLists.txt) compiles it with
// -march=native -ffp-contract=off like the other kernels; it does only
// adds and compares, which no contraction can touch.
//
// Bit identity: every lane performs the scalar solver's TimeSplit adds in
// the scalar operand order. Every cell starts from the same -1.0 sentinel
// and picks its winner on the total lane with the strict `>` (on a tie
// the west candidate wins). The schedule only changes which cells are
// computed when, never what a cell computes.
#pragma once

#include <cstdint>

namespace wave::kernels {

/// Rows per skewed block: one independent west chain per row. With packed
/// lanes six ran 5-10% faster than eight on tall grids and as fast as five
/// (docs/PERFORMANCE.md). A block is never taller than the grid is wide,
/// since at most n rows can be at distinct columns.
inline constexpr int kFillRows = 6;

/// A start time and its communication share (core::TimeSplit's layout).
struct FillTime {
  double total = 0.0;
  double comm = 0.0;
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

/// @brief Runs (r2) over an n x m grid.
/// @param col_pair [i] for 2 <= i <= n: columns i-1 and i share a node.
/// @param row_pair [j] for 2 <= j <= m: rows j-1 and j share a node.
/// @param row n+1 entries of workspace; on return row[i] = StartP(i, m)
///   for 1 <= i <= n (row[0] is not used).
void fill_recurrence(const FillCosts& costs, const std::uint8_t* col_pair,
                     const std::uint8_t* row_pair, int n, int m,
                     FillTime* row);

}  // namespace wave::kernels
