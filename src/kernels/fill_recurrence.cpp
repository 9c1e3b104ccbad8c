#include "kernels/fill_recurrence.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace wave::kernels {

namespace {

/// A start time and its communication share, {total, comm}, as one 2-lane
/// vector. Each lane of a vector add is one IEEE add, the one the scalar
/// solver performs on that TimeSplit field.
using Lanes = double __attribute__((vector_size(16)));

/// The per-point costs as lane pairs. A communication term t is {t, t}
/// (core/solver.cpp's comm_term, then TimeSplit::operator+=); the tile's
/// work is {w, 0.0}.
struct Terms {
  Lanes w;
  Lanes total_ew[2], recv_ns[2], send_ew[2], total_ns[2];

  explicit Terms(const FillCosts& k) : w{k.w, 0.0} {
    for (int p = 0; p < 2; ++p) {
      total_ew[p] = Lanes{k.total_ew[p], k.total_ew[p]};
      recv_ns[p] = Lanes{k.recv_ns[p], k.recv_ns[p]};
      send_ew[p] = Lanes{k.send_ew[p], k.send_ew[p]};
      total_ns[p] = Lanes{k.total_ns[p], k.total_ns[p]};
    }
  }
};

Lanes load(const FillTime& s) { return Lanes{s.total, s.comm}; }
FillTime store(Lanes v) { return FillTime{v[0], v[1]}; }

/// One StartP(i,j), exactly as core/solver.cpp evaluates it, from
/// StartP(i-1,j) + w and StartP(i,j-1) + w: that first add of both
/// candidates that read a cell, {total + w, comm + 0.0}, is done once,
/// when the cell is computed. The flags say which neighbours exist: west
/// (i > 1), east (i < n), north (j > 1). Every caller but the ramps
/// passes them as constants, so the branches fold. The winner is chosen
/// on lane 0 (the total) with a strict `>`, so a tie goes west.
///
/// kNonNegative: every cost is >= 0, so every candidate total is >= 0 (or
/// +inf) and the west candidate always beats the -1.0 sentinel. Its
/// compare is then skipped; the result is the same. That compare's branch
/// is always predicted, but it still costs 1.2-1.5x per cell on grids
/// with m >= 4 (docs/PERFORMANCE.md): the kernel is throughput-bound.
template <bool kNonNegative>
Lanes cell(const Terms& k, const std::uint8_t* col_pair, int i, bool has_west,
           bool has_east, bool has_north, Lanes west_w, Lanes north_w,
           Lanes recv_ns, Lanes total_ns) {
  Lanes best{-1.0, 0.0};
  if (has_west) {
    // West message arrives last: its full TotalComm, then the queued north
    // message still costs its Receive processing.
    Lanes cand = west_w + k.total_ew[col_pair[i]];
    if (has_north) cand += recv_ns;
    if (kNonNegative || cand[0] > best[0]) best = cand;
  }
  if (has_north) {
    // North message arrives last: the sender (i,j-1) first sends East (if
    // it has an east neighbour), then sends South to us.
    Lanes cand = north_w;
    if (has_east) cand += k.send_ew[col_pair[i + 1]];
    cand += total_ns;
    if (cand[0] > best[0]) best = cand;
  }
  return best;
}

/// Rows j0..j0+R-1, skewed: at step t, row j0+r computes column t-r. On
/// entry row[] holds row j0-1; on return it holds row j0+R-1.
template <bool kNonNegative, int R>
void block(const Terms& k, const std::uint8_t* col_pair,
           const std::uint8_t* row_pair, int n, int j0, FillTime* row) {
  Lanes recv_ns[R], total_ns[R];
  for (int r = 0; r < R; ++r) {
    recv_ns[r] = k.recv_ns[row_pair[j0 + r]];
    total_ns[r] = k.total_ns[row_pair[j0 + r]];
  }
  // own[r] is row j0+r's latest cell plus w: its west input at the next
  // step and row j0+r+1's north input. Rows update last-first, so row r
  // still reads row r-1's value from the previous step.
  Lanes own[R] = {};
  // r is a compile-time constant, so own[] stays in registers.
  auto compute = [&](auto r, int i, bool has_west, bool has_east) {
    Lanes north_w;
    if constexpr (r > 0) north_w = own[r - 1];
    else north_w = load(row[i]) + k.w;
    const Lanes v = cell<kNonNegative>(k, col_pair, i, has_west, has_east,
                                       true, own[r], north_w, recv_ns[r],
                                       total_ns[r]);
    if constexpr (r == R - 1) row[i] = store(v);
    own[r] = v + k.w;
  };
  // One step over every row, last row first.
  auto step = [&]<int... q>(std::integer_sequence<int, q...>, int t,
                            auto&& cell_at) {
    (cell_at(std::integral_constant<int, R - 1 - q>{}, t), ...);
  };
  const auto rows = std::make_integer_sequence<int, R>{};

  // Ramp steps: a row is idle while its column t-r lies outside 1..n, and
  // the column may be the first or the last, so the flags are tested.
  auto ramp_cell = [&](auto r, int t) {
    const int i = t - r;
    if (i >= 1 && i <= n) compute(r, i, i > 1, i < n);
  };
  // Steady state: every row is at an interior column 2..n-1.
  auto interior_cell = [&](auto r, int t) { compute(r, t - r, true, true); };

  for (int t = 1; t < n + R; ++t) {
    if (t > R && t < n)
      step(rows, t, interior_cell);
    else
      step(rows, t, ramp_cell);
  }
}

/// Runs block<rows>: the block height is a template argument so the rows'
/// chains and costs stay in registers.
template <bool kNonNegative, int R>
void block_of(int rows, const Terms& k, const std::uint8_t* col_pair,
              const std::uint8_t* row_pair, int n, int j0, FillTime* row) {
  if constexpr (R > 1) {
    if (rows < R)
      return block_of<kNonNegative, R - 1>(rows, k, col_pair, row_pair, n, j0,
                                           row);
  }
  block<kNonNegative, R>(k, col_pair, row_pair, n, j0, row);
}

template <bool kNonNegative>
void run(const FillCosts& costs, const std::uint8_t* col_pair,
         const std::uint8_t* row_pair, int n, int m, FillTime* row) {
  const Terms k(costs);
  // Row 1: one west chain, held in a register (no north neighbour).
  Lanes cur{costs.wpre, 0.0};
  row[1] = store(cur);
  for (int i = 2; i <= n; ++i) {
    cur = cell<kNonNegative>(k, col_pair, i, true, i < n, false, cur + k.w,
                             Lanes{}, Lanes{}, Lanes{});
    row[i] = store(cur);
  }
  // Rows 2..m in skewed blocks. A block taller than the grid is wide would
  // only add idle ramp slots: at most n rows can be at distinct columns.
  for (int j0 = 2; j0 <= m;) {
    const int rows = std::min({kFillRows, m - j0 + 1, n});
    block_of<kNonNegative, kFillRows>(rows, k, col_pair, row_pair, n, j0,
                                      row);
    j0 += rows;
  }
}

}  // namespace

void fill_recurrence(const FillCosts& costs, const std::uint8_t* col_pair,
                     const std::uint8_t* row_pair, int n, int m,
                     FillTime* row) {
  // `c >= 0.0` is false for a NaN, so a NaN cost takes the general path.
  const double all[] = {costs.w,           costs.wpre,
                        costs.total_ew[0], costs.total_ew[1],
                        costs.recv_ns[0],  costs.recv_ns[1],
                        costs.send_ew[0],  costs.send_ew[1],
                        costs.total_ns[0], costs.total_ns[1]};
  if (std::all_of(std::begin(all), std::end(all),
                  [](double c) { return c >= 0.0; }))
    run<true>(costs, col_pair, row_pair, n, m, row);
  else
    run<false>(costs, col_pair, row_pair, n, m, row);
}

}  // namespace wave::kernels
