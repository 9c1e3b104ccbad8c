#include "kernels/fill_recurrence.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/contracts.h"

// The row and point lanes need GCC/Clang's target attribute and the x86
// intrinsics; elsewhere fill_recurrence always runs the packed lanes.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WAVE_AVX512_LANES 1
#include <immintrin.h>
#else
#define WAVE_AVX512_LANES 0
#endif

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

/// Row 1: one west chain, held in a register (no north neighbour).
template <bool kNonNegative>
void first_row(const Terms& k, const FillCosts& costs,
               const std::uint8_t* col_pair, int n, FillTime* row) {
  Lanes cur{costs.wpre, 0.0};
  row[1] = store(cur);
  for (int i = 2; i <= n; ++i) {
    cur = cell<kNonNegative>(k, col_pair, i, true, i < n, false, cur + k.w,
                             Lanes{}, Lanes{}, Lanes{});
    row[i] = store(cur);
  }
}

/// Rows j0..m in skewed blocks; row[] holds row j0-1 on entry, row m on
/// return. A block taller than the grid is wide would only add idle ramp
/// slots: at most n rows can be at distinct columns.
template <bool kNonNegative>
void packed_blocks(const Terms& k, const std::uint8_t* col_pair,
                   const std::uint8_t* row_pair, int n, int j0, int m,
                   FillTime* row) {
  while (j0 <= m) {
    const int rows = std::min({kFillRows, m - j0 + 1, n});
    block_of<kNonNegative, kFillRows>(rows, k, col_pair, row_pair, n, j0,
                                      row);
    j0 += rows;
  }
}

template <bool kNonNegative>
void run(const FillCosts& costs, const std::uint8_t* col_pair,
         const std::uint8_t* row_pair, int n, int m, FillTime* row) {
  const Terms k(costs);
  first_row<kNonNegative>(k, costs, col_pair, n, row);
  packed_blocks<kNonNegative>(k, col_pair, row_pair, n, 2, m, row);
}

/// True when ok(c) holds for each of the ten costs.
bool all_costs(const FillCosts& k, bool (*ok)(double)) {
  const double all[] = {k.w,           k.wpre,          k.total_ew[0],
                        k.total_ew[1], k.recv_ns[0],    k.recv_ns[1],
                        k.send_ew[0],  k.send_ew[1],    k.total_ns[0],
                        k.total_ns[1]};
  return std::all_of(std::begin(all), std::end(all), ok);
}

// `c >= 0.0` is false for a NaN, so a NaN cost is neither.
bool non_negative(double c) { return c >= 0.0; }
bool finite_non_negative(double c) { return c >= 0.0 && c <= DBL_MAX; }

#if WAVE_AVX512_LANES

#define WAVE_AVX512 __attribute__((target("avx512f,avx512vl")))
#define WAVE_AVX512_INLINE WAVE_AVX512 inline __attribute__((always_inline))

constexpr int kWidth = kRowLaneWidth;
constexpr int kMaxRows = kRowLaneWidth * kRowLaneVectors;
/// Padding on each side of the reversed cost arrays: a lane reads columns
/// up to kMaxRows - 1 outside 1..n.
constexpr int kPad = kMaxRows;
/// The fewest rows a row-lane block takes. One to three vector pairs cost
/// about the same per step (the step waits on its chain of adds), so a
/// block must hold enough rows to beat the packed lanes per row.
constexpr int kMinBlockRows = kRowLanesMinRows - 1;
static_assert(kMinBlockRows > kWidth && kMaxRows <= 3 * kWidth,
              "a block is two or three vector pairs");

// The last row's cell is stored as one 16-byte {total, comm} pair.
static_assert(sizeof(FillTime) == 2 * sizeof(double));

/// The registers of one row-lane block of V vector pairs. Lane r of vector
/// v is block row 8v+r: own_* is its latest cell plus {w, 0.0}, its west
/// input at the next step and the next row's north input.
template <int V>
struct RowLaneState {
  __m512d own_total[V], own_comm[V];
  __m512d recv_ns[V], total_ns[V];  ///< the row's costs, per lane
};

/// Vector v of step t of a row-lane block, then vectors v-1..0: lane r of
/// vector v computes column t-8v-r. Vectors update last-first, so vector v
/// still reads vector v-1's value from the previous step. `total_ew` and
/// `send_ew` point at column 0 of the reversed cost arrays (column c at
/// [-c]); `above_*` broadcast the row above the block at column t, plus
/// {w, 0.0}. kRamp: some row is outside 2..n. A row at column 1 has no
/// west neighbour, so its lane takes the north candidate, as it does
/// against the scalar -1.0 sentinel; the last row is stored only from
/// column 1 on.
template <int V, bool kRamp, int v>
WAVE_AVX512_INLINE void row_lane_vector(RowLaneState<V>& s, int t, int rows,
                                        __m512d w, __m512d above_total,
                                        __m512d above_comm,
                                        const double* total_ew,
                                        const double* send_ew, FillTime* row) {
  // Lane 0 takes the previous vector's lane 7 (for the first vector, the
  // row above), lane k its own lane k-1: index bit 3 picks the second
  // source of _mm512_permutex2var_pd.
  const __m512i up = _mm512_set_epi64(6, 5, 4, 3, 2, 1, 0, 15);
  __m512d from_total = above_total, from_comm = above_comm;
  if constexpr (v > 0) {
    from_total = s.own_total[v - 1];
    from_comm = s.own_comm[v - 1];
  }
  const __m512d north_w_t =
      _mm512_permutex2var_pd(s.own_total[v], up, from_total);
  const __m512d north_w_c =
      _mm512_permutex2var_pd(s.own_comm[v], up, from_comm);
  const __m512d ew = _mm512_loadu_pd(total_ew - t + kWidth * v);
  const __m512d send = _mm512_loadu_pd(send_ew - t + kWidth * v);
  // The scalar order: (own + TotalComm_ew) + Receive_ns for west,
  // (north + Send_ew) + TotalComm_ns for north.
  const __m512d west_t =
      _mm512_add_pd(_mm512_add_pd(s.own_total[v], ew), s.recv_ns[v]);
  const __m512d west_c =
      _mm512_add_pd(_mm512_add_pd(s.own_comm[v], ew), s.recv_ns[v]);
  const __m512d north_t =
      _mm512_add_pd(_mm512_add_pd(north_w_t, send), s.total_ns[v]);
  const __m512d north_c =
      _mm512_add_pd(_mm512_add_pd(north_w_c, send), s.total_ns[v]);
  __mmask8 pick = _mm512_cmp_pd_mask(north_t, west_t, _CMP_GT_OQ);
  if constexpr (kRamp) {
    const int lane = t - 1 - kWidth * v;
    if (lane >= 0 && lane < kWidth)
      pick = static_cast<__mmask8>(pick | (1u << lane));
  }
  const __m512d best_t = _mm512_mask_blend_pd(pick, west_t, north_t);
  const __m512d best_c = _mm512_mask_blend_pd(pick, west_c, north_c);
  if constexpr (v == V - 1) {
    // The last row's cell, at column t-(rows-1): its two lanes as one pair.
    const int last = rows - 1 - kWidth * v;
    const int col = t - (rows - 1);
    if (!kRamp || col >= 1) {
      const __m512d pair = _mm512_permutex2var_pd(
          best_t, _mm512_set_epi64(0, 0, 0, 0, 0, 0, kWidth + last, last),
          best_c);
      _mm512_mask_storeu_pd(&row[col].total, 0x3, pair);
    }
  }
  s.own_total[v] = _mm512_add_pd(best_t, w);
  s.own_comm[v] = _mm512_add_pd(best_c, _mm512_setzero_pd());
  if constexpr (v > 0)
    row_lane_vector<V, kRamp, v - 1>(s, t, rows, w, above_total, above_comm,
                                     total_ew, send_ew, row);
}

/// One whole step t of a row-lane block.
template <int V, bool kRamp>
WAVE_AVX512_INLINE void row_lane_step(RowLaneState<V>& s, int t, int n,
                                      int rows, double w, __m512d wv,
                                      const double* total_ew,
                                      const double* send_ew, FillTime* row) {
  // Past column n the first row is idle; any finite value will do.
  const FillTime& above = row[kRamp ? std::min(t, n) : t];
  row_lane_vector<V, kRamp, V - 1>(
      s, t, rows, wv, _mm512_set1_pd(above.total + w),
      _mm512_set1_pd(above.comm + 0.0), total_ew, send_ew, row);
}

/// Rows j0..j0+rows-1 as V = ceil(rows / 8) vector pairs. row[] holds row
/// j0-1 on entry and row j0+rows-1 on return.
template <int V>
WAVE_AVX512 void row_lane_block(const FillCosts& k,
                                const std::uint8_t* row_pair, int n, int j0,
                                int rows, const double* total_ew,
                                const double* send_ew, FillTime* row) {
  RowLaneState<V> s;
  // Lanes past the block's last row compute on zero costs; no row reads
  // them.
  double recv_ns[kWidth * V], total_ns[kWidth * V];
  for (int r = 0; r < kWidth * V; ++r) {
    recv_ns[r] = r < rows ? k.recv_ns[row_pair[j0 + r]] : 0.0;
    total_ns[r] = r < rows ? k.total_ns[row_pair[j0 + r]] : 0.0;
  }
  for (int v = 0; v < V; ++v) {
    s.own_total[v] = s.own_comm[v] = _mm512_setzero_pd();
    s.recv_ns[v] = _mm512_loadu_pd(recv_ns + kWidth * v);
    s.total_ns[v] = _mm512_loadu_pd(total_ns + kWidth * v);
  }
  const __m512d w = _mm512_set1_pd(k.w);
  // Ramp steps: some row is at column 1 or has not started (t <= rows), or
  // the first row is past column n (t > n).
  const int steps = n + rows - 1;
  int t = 1;
  for (; t <= std::min(rows, n); ++t)
    row_lane_step<V, true>(s, t, n, rows, k.w, w, total_ew, send_ew, row);
  for (; t <= n; ++t)
    row_lane_step<V, false>(s, t, n, rows, k.w, w, total_ew, send_ew, row);
  for (; t <= steps; ++t)
    row_lane_step<V, true>(s, t, n, rows, k.w, w, total_ew, send_ew, row);
}

/// Eight fills' values at one cell, one fill per lane: their totals and
/// their comm shares.
struct PointLanes {
  __m512d total, comm;
};

WAVE_AVX512_INLINE __m512d lane_load(const FillLaneValues& v) {
  return _mm512_load_pd(v.lane);
}

/// A value plus {w, 0.0}: its west input to the next column and its north
/// input to the next row.
WAVE_AVX512_INLINE PointLanes plus_work(PointLanes v, __m512d w) {
  return {_mm512_add_pd(v.total, w),
          _mm512_add_pd(v.comm, _mm512_setzero_pd())};
}

/// A candidate plus a message cost t on both lanes, as {t, t}.
WAVE_AVX512_INLINE PointLanes plus_comm(PointLanes v, __m512d t) {
  return {_mm512_add_pd(v.total, t), _mm512_add_pd(v.comm, t)};
}

/// Per lane, `cand` where its total is later than best's (a strict `>`,
/// so a tie keeps best), else best.
WAVE_AVX512_INLINE PointLanes later_of(PointLanes best, PointLanes cand) {
  const __mmask8 later = _mm512_cmp_pd_mask(cand.total, best.total,
                                            _CMP_GT_OQ);
  return {_mm512_mask_blend_pd(later, best.total, cand.total),
          _mm512_mask_blend_pd(later, best.comm, cand.comm)};
}

/// cell() on eight fills at once: the same adds in the same order, the
/// winner picked per lane on the total with a strict `>`. `west` and
/// `north` are the neighbours plus {w, 0.0}.
template <bool kNonNegative, bool kWest, bool kEast, bool kNorth>
WAVE_AVX512_INLINE PointLanes point_cell(PointLanes west, PointLanes north,
                                         __m512d total_ew, __m512d recv_ns,
                                         __m512d send_ew, __m512d total_ns) {
  PointLanes best{_mm512_set1_pd(-1.0), _mm512_setzero_pd()};
  if constexpr (kWest) {
    PointLanes cand = plus_comm(west, total_ew);
    if constexpr (kNorth) cand = plus_comm(cand, recv_ns);
    best = kNonNegative ? cand : later_of(best, cand);
  }
  if constexpr (kNorth) {
    PointLanes cand = north;
    if constexpr (kEast) cand = plus_comm(cand, send_ew);
    best = later_of(best, plus_comm(cand, total_ns));
  }
  return best;
}

/// A batch's per-lane costs. Column i's east-west message costs sit in
/// period-table entry (i - 1) & col_mask, row j's north-south costs in
/// entry (j - 1) & row_mask (see period_table).
struct PointInputs {
  FillLaneValues w, wpre;
  const FillLaneValues* cols;  ///< [2k] TotalComm_ew, [2k + 1] Send_ew
  const FillLaneValues* rows;  ///< [2k] Receive_ns, [2k + 1] TotalComm_ns
  int col_mask, row_mask;
};

/// PointInputs inside the walk, with w and wpre held in registers.
struct PointTables {
  __m512d w, wpre;
  const FillLaneValues* cols;
  const FillLaneValues* rows;
  int col_mask, row_mask;

  WAVE_AVX512_INLINE explicit PointTables(const PointInputs& in)
      : w(lane_load(in.w)),
        wpre(lane_load(in.wpre)),
        cols(in.cols),
        rows(in.rows),
        col_mask(in.col_mask),
        row_mask(in.row_mask) {}

  /// TotalComm of the message into column i; Send of the one east of it.
  WAVE_AVX512_INLINE __m512d total_ew(int i) const {
    return lane_load(cols[2 * ((i - 1) & col_mask)]);
  }
  WAVE_AVX512_INLINE __m512d send_ew(int i) const {
    return lane_load(cols[2 * (i & col_mask) + 1]);
  }
  /// Receive and TotalComm of the message into row j.
  WAVE_AVX512_INLINE __m512d recv_ns(int j) const {
    return lane_load(rows[2 * ((j - 1) & row_mask)]);
  }
  WAVE_AVX512_INLINE __m512d total_ns(int j) const {
    return lane_load(rows[2 * ((j - 1) & row_mask) + 1]);
  }
};

/// Row j + 1 of column i on a grid of S rows, the short side. own[r]
/// holds column i-1's cell at row r + 1 plus {w, 0.0} on entry, column i's
/// on return; own[j - 1] already holds column i's cell at row j.
template <bool kNonNegative, bool kWest, bool kEast, int j>
WAVE_AVX512_INLINE PointLanes column_cell(const PointTables& k,
                                          __m512d total_ew, __m512d send_ew,
                                          PointLanes* own) {
  const __m512d zero = _mm512_setzero_pd();
  // Column 1 has no west input, so own[j] is not read there.
  const PointLanes none{zero, zero};
  PointLanes v{k.wpre, zero};
  if constexpr (j == 0) {
    if constexpr (kWest)
      v = point_cell<kNonNegative, true, kEast, false>(own[0], none, total_ew,
                                                       zero, zero, zero);
  } else {
    v = point_cell<kNonNegative, kWest, kEast, true>(
        kWest ? own[j] : none, own[j - 1], total_ew, k.recv_ns(j + 1),
        send_ew, k.total_ns(j + 1));
  }
  own[j] = plus_work(v, k.w);
  return v;
}

/// Column i, rows 1..S; returns StartP(i, S).
template <bool kNonNegative, bool kWest, bool kEast, int... j>
WAVE_AVX512_INLINE PointLanes point_column(const PointTables& k, int i,
                                           PointLanes* own,
                                           std::integer_sequence<int, j...>) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d total_ew = kWest ? k.total_ew(i) : zero;
  const __m512d send_ew = kEast ? k.send_ew(i) : zero;
  PointLanes v{zero, zero};
  ((v = column_cell<kNonNegative, kWest, kEast, j>(k, total_ew, send_ew, own)),
   ...);
  return v;
}

/// Column c + 1 of row j on a grid of S columns, the short side. own[c]
/// holds row j-1's cell at column c + 1 plus {w, 0.0} on entry, row j's on
/// return; own[c - 1] already holds row j's cell at column c.
template <bool kNonNegative, bool kNorth, int S, int c>
WAVE_AVX512_INLINE PointLanes row_cell(const PointTables& k, __m512d recv_ns,
                                       __m512d total_ns, PointLanes* own) {
  constexpr bool kWest = c > 0, kEast = c < S - 1;
  const __m512d zero = _mm512_setzero_pd();
  PointLanes v{k.wpre, zero};
  if constexpr (kWest || kNorth) {
    // Row 1 has no north input, so own[c] is not read there.
    const PointLanes none{zero, zero};
    v = point_cell<kNonNegative, kWest, kEast, kNorth>(
        kWest ? own[c - 1] : none, kNorth ? own[c] : none,
        kWest ? k.total_ew(c + 1) : zero, recv_ns,
        kEast ? k.send_ew(c + 1) : zero, total_ns);
  }
  own[c] = plus_work(v, k.w);
  return v;
}

/// Row j, columns 1..S; writes StartP(1, j) and StartP(S, j).
template <bool kNonNegative, bool kNorth, int S, int... c>
WAVE_AVX512_INLINE void point_row(const PointTables& k, int j,
                                  PointLanes* own, PointLanes& first,
                                  PointLanes& last,
                                  std::integer_sequence<int, c...>) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d recv_ns = kNorth ? k.recv_ns(j) : zero;
  const __m512d total_ns = kNorth ? k.total_ns(j) : zero;
  const PointLanes row[] = {
      row_cell<kNonNegative, kNorth, S, c>(k, recv_ns, total_ns, own)...};
  first = row[0];
  last = row[S - 1];
}

/// The whole grid, its short side S innermost: the latest S cells of the
/// walk, plus {w, 0.0}, stay in registers. V vectors of fills, in[0] and
/// in[V - 1], run interleaved: each cell waits on its west and north
/// neighbours' chains of adds, and a second vector's independent cells
/// fill the wait (1.7x at S = 1, 1.1-1.2x at S = 3..5, no loss on the
/// larger S). Stores vector v's StartP(1, m) to corner[4v] (totals) and
/// corner[4v + 1] (comm shares), its StartP(n, m) to corner[4v + 2] and
/// corner[4v + 3].
template <bool kNonNegative, int S, int V>
WAVE_AVX512 void point_walk(const PointInputs* in, int n, int m,
                            FillLaneValues* corner) {
  static_assert(V == 1 || V == 2);
  const PointTables k0(in[0]), k1(in[V - 1]);
  const auto cells = std::make_integer_sequence<int, S>{};
  PointLanes own0[S], own1[S];
  PointLanes diag[2], full[2];
  // Column-major while m is the short side; a single column (n = 1,
  // so m = 1 too) runs as one row.
  if (m == S && n > 1) {
    diag[0] = point_column<kNonNegative, false, true>(k0, 1, own0, cells);
    if constexpr (V == 2)
      diag[1] = point_column<kNonNegative, false, true>(k1, 1, own1, cells);
    for (int i = 2; i < n; ++i) {
      point_column<kNonNegative, true, true>(k0, i, own0, cells);
      if constexpr (V == 2)
        point_column<kNonNegative, true, true>(k1, i, own1, cells);
    }
    full[0] = point_column<kNonNegative, true, false>(k0, n, own0, cells);
    if constexpr (V == 2)
      full[1] = point_column<kNonNegative, true, false>(k1, n, own1, cells);
  } else {
    point_row<kNonNegative, false, S>(k0, 1, own0, diag[0], full[0], cells);
    if constexpr (V == 2)
      point_row<kNonNegative, false, S>(k1, 1, own1, diag[1], full[1],
                                        cells);
    for (int j = 2; j <= m; ++j) {
      point_row<kNonNegative, true, S>(k0, j, own0, diag[0], full[0], cells);
      if constexpr (V == 2)
        point_row<kNonNegative, true, S>(k1, j, own1, diag[1], full[1],
                                         cells);
    }
  }
  for (int v = 0; v < V; ++v) {
    _mm512_store_pd(corner[4 * v].lane, diag[v].total);
    _mm512_store_pd(corner[4 * v + 1].lane, diag[v].comm);
    _mm512_store_pd(corner[4 * v + 2].lane, full[v].total);
    _mm512_store_pd(corner[4 * v + 3].lane, full[v].comm);
  }
}

/// Runs point_walk for S = min(n, m): the short side is a template
/// argument so its cells stay in registers. Two vectors run interleaved
/// when every cost is >= 0. With the sentinel compare, which only
/// negative or NaN costs need, they run one after the other: a rare path
/// does not need a second set of instantiations (kernel text 243 -> 166
/// KB).
template <bool kNonNegative, int S>
void point_walk_of(const PointInputs* in, int vectors, int n, int m,
                   FillLaneValues* corner) {
  if constexpr (S > 1) {
    if (std::min(n, m) < S)
      return point_walk_of<kNonNegative, S - 1>(in, vectors, n, m, corner);
  }
  if constexpr (kNonNegative) {
    if (vectors == 2) return point_walk<true, S, 2>(in, n, m, corner);
  }
  for (int v = 0; v < vectors; ++v)
    point_walk<kNonNegative, S, 1>(in + v, n, m, corner + 4 * v);
}

/// One axis's period table, entries [2k] and [2k + 1] for k < size: per
/// lane, the costs a[p] and b[p] at placement p = ((k & (tile - 1)) != 0).
/// For a power-of-two tile that is nonzero exactly when indices k and
/// k + 1 fall on one tile, so the entry at (i - 1) & (period - 1) serves
/// index i for any period that is a multiple of every lane's tile.
void period_table(const FillPoint* const* lane, int size,
                  int FillPoint::*tile, double (FillCosts::*a)[2],
                  double (FillCosts::*b)[2], FillLaneValues* out) {
  for (int k = 0; k < size; ++k)
    for (int l = 0; l < kPointLaneWidth; ++l) {
      const FillPoint& f = *lane[l];
      const int p = (k & (f.*tile - 1)) != 0;
      out[2 * k].lane[l] = (f.costs.*a)[p];
      out[2 * k + 1].lane[l] = (f.costs.*b)[p];
    }
}

#endif  // WAVE_AVX512_LANES

}  // namespace

void fill_packed_lanes(const FillCosts& costs, const std::uint8_t* col_pair,
                       const std::uint8_t* row_pair, int n, int m,
                       FillTime* row) {
  if (all_costs(costs, non_negative))
    run<true>(costs, col_pair, row_pair, n, m, row);
  else
    run<false>(costs, col_pair, row_pair, n, m, row);
}

bool closed_form_applies(const FillCosts& k, int cx, int cy) {
  // 1 x 2 nodes (xt4-dual) stay on the recurrence until its pinned model
  // values may move (ROADMAP item 1(a)); fill_candidate_columns is exact
  // for them too.
  if (cx >= 2 && cy >= 2)
    return cx <= kCandidateMaxCx && all_costs(k, finite_non_negative);
  const double off_node[] = {k.w,          k.wpre,        k.total_ew[0],
                             k.recv_ns[0], k.send_ew[0], k.total_ns[0]};
  return cx == 1 && cy == 1 &&
         std::all_of(std::begin(off_node), std::end(off_node),
                     finite_non_negative);
}

FillCorners fill_closed_form(const FillCosts& k, int n, int m) {
  const double a1 = k.total_ew[0];
  const double a = a1 + k.recv_ns[0];
  const double bn = k.total_ns[0];
  const double b = k.send_ew[0] + bn;
  const double work = k.wpre + (n + m - 2) * k.w;
  // The path with `east` hops in row 1 and `south` hops in column n.
  auto path = [&](int east, int south) {
    const double comm = east * a1 + (n - 1 - east) * a + south * bn +
                        (m - 1 - south) * b;
    return FillTime{work + comm, comm};
  };
  FillTime full = path(n - 1, m - 1);
  if (n > 1 && m > 1) {
    for (const auto& [east, south] :
         {std::pair{0, 0}, std::pair{0, m - 2}, std::pair{n - 2, 0},
          std::pair{n - 2, m - 2}}) {
      const FillTime t = path(east, south);
      if (t.total > full.total) full = t;
    }
  }
  const double diag = (m - 1) * (n > 1 ? b : bn);
  return {{k.wpre + (m - 1) * k.w + diag, diag}, full};
}

FillCorners fill_candidate_columns(const FillCosts& k, int cx, int cy, int n,
                                   int m) {
  // Costs every path pays: the work of its n + m - 2 hops, one TotalComm
  // per column boundary and one per row boundary, off-node where the
  // boundary is a node's edge.
  const int ew_off = (n - 1) / cx, ns_off = (m - 1) / cy;
  const double ew = ew_off * k.total_ew[0] + (n - 1 - ew_off) * k.total_ew[1];
  const double ns = ns_off * k.total_ns[0] + (m - 1 - ns_off) * k.total_ns[1];
  // The route's own costs: f(j) per east hop in row j, the north message's
  // Receive; g(i) per south hop in column i, the Send east before it.
  auto f = [&](int j) { return j == 1 ? 0.0 : k.recv_ns[(j - 1) % cy != 0]; };
  auto g = [&](int i) { return i == n ? 0.0 : k.send_ew[i % cx != 0]; };

  // Candidate columns, ascending: 1..cx+1 and n-cx..n.
  int col[2 * kCandidateMaxCx + 2];
  int cols = 0;
  for (int x = 1; x <= n; ++x) {
    if (x == cx + 2 && n - cx > x) x = n - cx;
    col[cols++] = x;
  }
  // u[c]: the longest route to column col[c] of the current row, just
  // after its south hop into that row; only column 1 starts row 1.
  double u[2 * kCandidateMaxCx + 2];
  u[0] = 0.0;
  std::fill(u + 1, u + cols, -HUGE_VAL);
  double run = 0.0;  // ends at column n of row m
  for (int j = 1; j <= m; ++j) {
    const double east = f(j);
    run = u[0];
    for (int c = 0; c < cols; ++c) {
      if (c > 0) run = std::max(run + east * (col[c] - col[c - 1]), u[c]);
      u[c] = run + g(col[c]);
    }
  }
  const double full = ew + ns + run;
  const double diag = (m - 1) * g(1) + ns;
  return {{k.wpre + (m - 1) * k.w + diag, diag},
          {k.wpre + (n + m - 2) * k.w + full, full}};
}

bool has_row_lanes() {
#if WAVE_AVX512_LANES
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512vl");
  return has;
#else
  return false;
#endif
}

void fill_row_lanes(const FillCosts& costs, const std::uint8_t* col_pair,
                    const std::uint8_t* row_pair, int n, int m,
                    FillRowLanes& lanes, FillTime* row) {
  const Terms k(costs);
  first_row<true>(k, costs, col_pair, n, row);
  int j0 = 2;
#if WAVE_AVX512_LANES
  if (m - 1 >= kMinBlockRows) {
    // Column c of a reversed array sits at [n + kPad - c], so the eight
    // lanes of a vector, at columns t-8v .. t-8v-7, are one contiguous
    // load. Columns outside 1..n cost 0.0; column 1's east-west cost is
    // never picked.
    const auto size = static_cast<std::size_t>(n + 2 * kPad);
    lanes.total_ew.resize(size);
    lanes.send_ew.resize(size);
    double* const total_ew = lanes.total_ew.data() + n + kPad;
    double* const send_ew = lanes.send_ew.data() + n + kPad;
    const double ew[2] = {costs.total_ew[0], costs.total_ew[1]};
    const double send[2] = {costs.send_ew[0], costs.send_ew[1]};
    std::fill(total_ew - n - kPad, total_ew - n, 0.0);
    std::fill(send_ew - n - kPad, send_ew - n, 0.0);
    std::fill(total_ew - 1, total_ew + kPad, 0.0);
    std::fill(send_ew, send_ew + kPad, 0.0);
    for (int i = 2; i <= n; ++i) total_ew[-i] = ew[col_pair[i]];
    for (int i = 1; i < n; ++i) send_ew[-i] = send[col_pair[i + 1]];
    send_ew[-n] = -0.0;  // no east neighbour: x + -0.0 == x
    // Full blocks of kMaxRows rows, then one shorter block while it holds
    // kMinBlockRows rows. The packed lanes run what is left.
    for (int left = m - 1; left >= kMinBlockRows; left = m - j0 + 1) {
      const int rows = std::min(kMaxRows, left);
      if (rows > 2 * kWidth)
        row_lane_block<3>(costs, row_pair, n, j0, rows, total_ew, send_ew,
                          row);
      else
        row_lane_block<2>(costs, row_pair, n, j0, rows, total_ew, send_ew,
                          row);
      j0 += rows;
    }
  }
#else
  (void)lanes;
#endif
  packed_blocks<true>(k, col_pair, row_pair, n, j0, m, row);
}

void fill_recurrence(const FillCosts& costs, const std::uint8_t* col_pair,
                     const std::uint8_t* row_pair, int n, int m,
                     FillRowLanes& lanes, FillTime* row) {
  // A row-lane block holds up to 24 rows, which a narrow grid leaves
  // mostly idle: its rows reach distinct columns only n at a time.
  if (std::min(n, m) >= kRowLanesMinRows && has_row_lanes() &&
      all_costs(costs, finite_non_negative))
    fill_row_lanes(costs, col_pair, row_pair, n, m, lanes, row);
  else
    fill_packed_lanes(costs, col_pair, row_pair, n, m, row);
}

void fill_point_lanes(const FillPoint* const* fills, int count, int n, int m,
                      FillPointLanes& lanes, FillCorners* out) {
  WAVE_EXPECTS(has_row_lanes() && count >= 1 &&
               count <= kPointLanesMaxFills &&
               std::min(n, m) < kRowLanesMinRows);
#if WAVE_AVX512_LANES
  // Fill f runs in lane f % 8 of vector f / 8. Unused lanes of the last
  // vector run its first fill; nothing reads them.
  constexpr int kVectors = kPointLanesMaxFills / kPointLaneWidth;
  const int vectors = (count + kPointLaneWidth - 1) / kPointLaneWidth;
  const FillPoint* lane[kPointLanesMaxFills];
  PointInputs in[kVectors];
  bool costs_non_negative = true;
  std::size_t table_size = 0;
  int cols[kVectors], rows[kVectors];
  for (int v = 0; v < vectors; ++v) {
    const FillPoint** vec = lane + kPointLaneWidth * v;
    int col_period = 1, row_period = 1;
    for (int l = 0; l < kPointLaneWidth; ++l) {
      const int f = kPointLaneWidth * v + l;
      vec[l] = fills[f < count ? f : kPointLaneWidth * v];
      in[v].w.lane[l] = vec[l]->costs.w;
      in[v].wpre.lane[l] = vec[l]->costs.wpre;
      col_period = std::max(col_period, vec[l]->cx);
      row_period = std::max(row_period, vec[l]->cy);
      costs_non_negative =
          costs_non_negative && all_costs(vec[l]->costs, non_negative);
    }
    in[v].col_mask = col_period - 1;
    in[v].row_mask = row_period - 1;
    // Column i reads entry (i - 1) or i masked by the period, both < n;
    // row j reads entry (j - 1), < m.
    cols[v] = std::min(col_period, n);
    rows[v] = std::min(row_period, m);
    table_size += 2 * static_cast<std::size_t>(cols[v] + rows[v]);
  }
  lanes.costs.resize(table_size);
  FillLaneValues* table = lanes.costs.data();
  for (int v = 0; v < vectors; ++v) {
    const FillPoint* const* vec = lane + kPointLaneWidth * v;
    in[v].cols = table;
    period_table(vec, cols[v], &FillPoint::cx, &FillCosts::total_ew,
                 &FillCosts::send_ew, table);
    table += 2 * cols[v];
    in[v].rows = table;
    period_table(vec, rows[v], &FillPoint::cy, &FillCosts::recv_ns,
                 &FillCosts::total_ns, table);
    table += 2 * rows[v];
  }

  constexpr int kMaxShort = kRowLanesMinRows - 1;
  FillLaneValues corner[4 * kVectors];
  if (costs_non_negative)
    point_walk_of<true, kMaxShort>(in, vectors, n, m, corner);
  else
    point_walk_of<false, kMaxShort>(in, vectors, n, m, corner);
  for (int f = 0; f < count; ++f) {
    const FillLaneValues* c = corner + 4 * (f / kPointLaneWidth);
    const int l = f % kPointLaneWidth;
    out[f] = {{c[0].lane[l], c[1].lane[l]}, {c[2].lane[l], c[3].lane[l]}};
  }
#else
  (void)fills, (void)n, (void)m, (void)lanes, (void)out;
#endif
}

}  // namespace wave::kernels
