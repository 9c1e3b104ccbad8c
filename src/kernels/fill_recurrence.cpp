#include "kernels/fill_recurrence.h"

#include <algorithm>
#include <utility>

namespace wave::kernels {

namespace {

/// A communication term: it adds to the total and to the comm share
/// (core/solver.cpp's comm_term followed by TimeSplit::operator+=).
void add_comm(FillTime& s, double t) {
  s.total += t;
  s.comm += t;
}

/// A start time plus the tile's work, {total + w, comm + 0.0}: the first
/// add of both candidates that read this cell (its east and its south
/// neighbour's), so it is done once, when the cell is computed.
FillTime plus_w(const FillTime& s, double w) {
  return FillTime{s.total + w, s.comm + 0.0};
}

/// One StartP(i,j), exactly as core/solver.cpp evaluates it, from
/// plus_w(StartP(i-1,j)) and plus_w(StartP(i,j-1)). The flags say which
/// neighbours exist: west (i > 1), east (i < n), north (j > 1). Every
/// caller but the ramps passes them as constants, so the branches fold.
FillTime cell(const FillCosts& k, const std::uint8_t* col_pair, int i,
              bool has_west, bool has_east, bool has_north,
              const FillTime& west_w, const FillTime& north_w, double recv_ns,
              double total_ns) {
  FillTime best{-1.0, 0.0};
  if (has_west) {
    // West message arrives last: its full TotalComm, then the queued north
    // message still costs its Receive processing.
    FillTime cand = west_w;
    add_comm(cand, k.total_ew[col_pair[i]]);
    if (has_north) add_comm(cand, recv_ns);
    if (cand.total > best.total) best = cand;
  }
  if (has_north) {
    // North message arrives last: the sender (i,j-1) first sends East (if
    // it has an east neighbour), then sends South to us.
    FillTime cand = north_w;
    if (has_east) add_comm(cand, k.send_ew[col_pair[i + 1]]);
    add_comm(cand, total_ns);
    if (cand.total > best.total) best = cand;
  }
  return best;
}

/// Rows j0..j0+R-1, skewed: at step t, row j0+r computes column t-r. On
/// entry row[] holds row j0-1; on return it holds row j0+R-1.
template <int R>
void block(const FillCosts& k, const std::uint8_t* col_pair,
           const std::uint8_t* row_pair, int n, int j0, FillTime* row) {
  double recv_ns[R], total_ns[R];
  for (int r = 0; r < R; ++r) {
    recv_ns[r] = k.recv_ns[row_pair[j0 + r]];
    total_ns[r] = k.total_ns[row_pair[j0 + r]];
  }
  // {own_t[r], own_c[r]} is plus_w of row j0+r's latest cell: its west
  // input at the next step and row j0+r+1's north input. Rows update
  // last-first, so row r still reads row r-1's value from the previous
  // step. Two arrays rather than FillTime pairs keep the compiler from
  // packing each pair into one vector register and shuffling it per cell.
  double own_t[R] = {}, own_c[R] = {};
  // r is a compile-time constant, so own_t/own_c stay in registers.
  auto compute = [&](auto r, int i, bool has_west, bool has_east) {
    FillTime north_w;
    if constexpr (r > 0) north_w = FillTime{own_t[r - 1], own_c[r - 1]};
    else north_w = plus_w(row[i], k.w);
    const FillTime v =
        cell(k, col_pair, i, has_west, has_east, true,
             FillTime{own_t[r], own_c[r]}, north_w, recv_ns[r], total_ns[r]);
    if constexpr (r == R - 1) row[i] = v;
    const FillTime v_w = plus_w(v, k.w);
    own_t[r] = v_w.total;
    own_c[r] = v_w.comm;
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
template <int R>
void block_of(int rows, const FillCosts& k, const std::uint8_t* col_pair,
              const std::uint8_t* row_pair, int n, int j0, FillTime* row) {
  if constexpr (R > 1) {
    if (rows < R)
      return block_of<R - 1>(rows, k, col_pair, row_pair, n, j0, row);
  }
  block<R>(k, col_pair, row_pair, n, j0, row);
}

}  // namespace

void fill_recurrence(const FillCosts& costs, const std::uint8_t* col_pair,
                     const std::uint8_t* row_pair, int n, int m,
                     FillTime* row) {
  // Row 1: one west chain, held in a register (no north neighbour).
  FillTime cur{costs.wpre, 0.0};
  row[1] = cur;
  for (int i = 2; i <= n; ++i) {
    cur = cell(costs, col_pair, i, true, i < n, false, plus_w(cur, costs.w),
               FillTime{}, 0.0, 0.0);
    row[i] = cur;
  }
  // Rows 2..m in skewed blocks. A block taller than the grid is wide would
  // only add idle ramp slots: at most n rows can be at distinct columns.
  for (int j0 = 2; j0 <= m;) {
    const int rows = std::min({kFillRows, m - j0 + 1, n});
    block_of<kFillRows>(rows, costs, col_pair, row_pair, n, j0, row);
    j0 += rows;
  }
}

}  // namespace wave::kernels
