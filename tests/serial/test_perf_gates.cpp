// Wall-clock performance gates, each a ratio of two runs measured in this
// one process, so they hold on any machine:
//
//   BatchRoute     the default BatchRunner::run(points) — one batch-solver
//                  plan, shared-fill units — must be >= 10x faster than
//                  run(points, evaluate_scenario), the per-point scalar
//                  Solver, on one thread. Two inputs: a model sweep grid
//                  and the optimizer's candidate stream (the optimizer
//                  scores candidates through run(points)).
//   FillRowLanes   the r2 fill kernel on AVX-512 row lanes must take
//                  <= 1/1.5 the time per cell of the packed-lane kernel at
//                  256x256 and 1024x64, on xt4-dual costs. Skipped where
//                  the CPU lacks AVX-512F/VL.
//   FillPointLanes the distinct fills of one what-if (app, grid) on the
//                  AVX-512 point lanes, side by side, must take
//                  <= 1/2 the time per fill-cell of the same fills run one
//                  at a time, at 4871x1 and 4871x8. Skipped where the CPU
//                  lacks AVX-512F/VL.
//   Calendar       sim::Engine's radix-heap calendar must run a hold model
//                  at the wavefront's pending depth and delay mix >= 1.2x
//                  faster than the binary heap it replaced
//                  (std::push_heap/pop_heap over the same task slab), on
//                  the same event stream.
//   MetricsObserver  a serial 16x16 wavefront DES with an
//                  obs::MetricsRegistry attached must keep >= 0.90x the
//                  events/s of the same run without one: the always-on
//                  metrics surface stays near free.
//
// Like the Wg tests beside them, they compare measured durations, so
// ctest runs them alone (RUN_SERIAL, see CMakeLists.txt). BatchRoute,
// Calendar and the Fill gates compare the fastest of several runs of each
// side;
// MetricsObserver, whose bound sits close to the true ratio, takes the
// median of per-pair ratios. Unoptimized and sanitized builds measure the instrumentation,
// not the code, so there the gates skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/benchmarks.h"
#include "core/solver.h"
#include "kernels/fill_recurrence.h"
#include "loggp/comm_model.h"
#include "obs/metrics.h"
#include "optimize/search_space.h"
#include "runner/runner.h"
#include "sim/engine.h"
#include "topology/grid.h"
#include "wave/context.h"
#include "workloads/registry.h"

namespace wr = wave::runner;
namespace wcb = wave::core::benchmarks;

#ifndef WAVE_MACHINES_DIR
#define WAVE_MACHINES_DIR "machines"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#define SKIP_UNLESS_MEASURABLE()                                             \
  do {                                                                       \
    if (!kOptimized) GTEST_SKIP() << "unoptimized build (NDEBUG unset)";     \
    if (kSanitized) GTEST_SKIP() << "sanitized build";                       \
  } while (0)

template <typename F>
double seconds(F&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Fastest of `reps` timings of `a` and of `b`, run alternately so drift
/// in the machine's speed hits both sides alike.
template <typename A, typename B>
std::pair<double, double> fastest_pair(int reps, A&& a, B&& b) {
  double best_a = 0.0, best_b = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double ta = seconds(a), tb = seconds(b);
    best_a = r == 0 ? ta : std::min(best_a, ta);
    best_b = r == 0 ? tb : std::min(best_b, tb);
  }
  return {best_a, best_b};
}

/// Median over `pairs` (odd) back-to-back runs of seconds(a) /
/// seconds(b). The side that runs first alternates from pair to pair, so
/// neither always meets the warmer cache. One slow run spoils one pair's
/// ratio, which the median ignores; a best-of comparison instead rests on
/// the single luckiest run of each side.
template <typename A, typename B>
double median_ratio(int pairs, A&& a, B&& b) {
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double ta = 0.0, tb = 0.0;
    if (p % 2 == 0) {
      ta = seconds(a);
      tb = seconds(b);
    } else {
      tb = seconds(b);
      ta = seconds(a);
    }
    ratios.push_back(ta / tb);
  }
  const auto mid = ratios.begin() + pairs / 2;
  std::nth_element(ratios.begin(), mid, ratios.end());
  return *mid;
}

/// Two Sweep-style apps x 101 processor counts from 64 to 4,064 x 4 Htile
/// values on the dual-core XT4: 808 analytic points, where the scalar
/// Solver's O(P) fill recurrence dominates.
std::vector<wr::Scenario> model_grid() {
  std::vector<int> procs;
  for (int p = 64; p <= 4'096; p += 40) procs.push_back(p);
  wr::SweepGrid grid;
  grid.apps({{"Sweep3D", wcb::sweep3d(wcb::Sweep3dConfig{})},
             {"Chimaera", wcb::chimaera(wcb::ChimaeraConfig{})}});
  grid.machines({{"XT4 dual", wave::core::MachineConfig::xt4_dual_core()}});
  grid.processors(procs);
  grid.values("Htile", {1, 2, 5, 10},
              [](wr::Scenario& s, double h) { s.app.htile = h; });
  return grid.points();
}

/// A pinned optimizer candidate stream, as Optimizer::run() builds its
/// points: Sweep3D 96^3 on both XT4 nodes x the closest-to-square grid of
/// 26 processor counts from 512 to 4,012 x 4 Htile values — 208 points.
std::vector<wr::Scenario> optimize_stream() {
  wcb::Sweep3dConfig s3;
  s3.nx = s3.ny = s3.nz = 96;
  wave::optimize::SearchSpace space;
  space.machines = {wave::core::MachineConfig::xt4_dual_core(),
                    wave::core::MachineConfig::xt4_single_core()};
  for (int p = 512; p <= 4096; p += 140)
    space.decompositions.push_back(wave::topo::closest_to_square(p));
  space.htiles = {1, 2, 5, 10};
  std::vector<wr::Scenario> points;
  for (std::size_t k = 0; k < space.size(); ++k) {
    const wave::optimize::Candidate c = space.at(k);
    wr::Scenario s;
    s.app = wcb::sweep3d(s3);
    s.app.htile = space.htiles[c.htile];
    s.machine = space.machines[c.machine];
    s.grid = space.decompositions[c.decomp];
    s.index = k;
    points.push_back(std::move(s));
  }
  return points;
}

/// Batch-routed vs scalar wall time on one thread, best of 5 each.
void expect_batch_route_tenfold(const std::vector<wr::Scenario>& points) {
  const wave::Context ctx;
  const wr::BatchRunner runner(ctx, wr::BatchRunner::Options(1));
  const auto scalar = [&](const wr::Scenario& s) {
    return wr::evaluate_scenario(ctx, s);
  };
  const auto [batch_s, scalar_s] =
      fastest_pair(5, [&] { runner.run(points); },
                   [&] { runner.run(points, scalar); });
  ASSERT_GT(batch_s, 0.0);
  const double speedup = scalar_s / batch_s;
  std::printf("%zu points: batch %.4f s, scalar %.4f s, %.1fx\n",
              points.size(), batch_s, scalar_s, speedup);
  EXPECT_GE(speedup, 10.0) << "the batch route fell toward the scalar path";
}

}  // namespace

TEST(PerfGate, BatchRouteIsTenfoldScalarOnModelGrid) {
  SKIP_UNLESS_MEASURABLE();
  const auto points = model_grid();
  ASSERT_EQ(points.size(), 808u);
  expect_batch_route_tenfold(points);
}

TEST(PerfGate, BatchRouteIsTenfoldScalarOnOptimizeStream) {
  SKIP_UNLESS_MEASURABLE();
  const auto points = optimize_stream();
  ASSERT_EQ(points.size(), 208u);
  expect_batch_route_tenfold(points);
}

namespace {

/// The fill inputs of a point: its ten costs and node shape.
wave::kernels::FillPoint fill_point(const wave::core::AppParams& app,
                                    const wave::core::MachineConfig& machine,
                                    const wave::loggp::CommModel& comm,
                                    const wave::topo::Grid& grid) {
  using wave::loggp::Placement;
  const wave::core::ModelResult r1 = wave::core::evaluate_r1(app, grid);
  wave::kernels::FillPoint f;
  f.costs.w = r1.w;
  f.costs.wpre = r1.wpre;
  for (const Placement where : {Placement::OffNode, Placement::OnChip}) {
    const int on_chip = where == Placement::OnChip;
    f.costs.total_ew[on_chip] = comm.total(r1.msg_bytes_ew, where);
    f.costs.recv_ns[on_chip] = comm.recv(r1.msg_bytes_ns, where);
    f.costs.send_ew[on_chip] = wave::core::send_cost(app, machine, comm,
                                                     r1.msg_bytes_ew, where);
    f.costs.total_ns[on_chip] = comm.total(r1.msg_bytes_ns, where);
  }
  f.cx = machine.cx;
  f.cy = machine.cy;
  return f;
}

/// A placement-parity bitmap as BatchEval builds it: [i] for 2 <= i <=
/// count says whether i-1 and i fall on one `tile`-wide node.
std::vector<std::uint8_t> parity(int count, int tile) {
  std::vector<std::uint8_t> pair(static_cast<std::size_t>(count) + 1, 0);
  for (int i = 2; i <= count; ++i) pair[i] = (i - 2) / tile == (i - 1) / tile;
  return pair;
}

/// Packed-lane vs row-lane time per cell of the fill at n x m: Sweep3D
/// 20M-cell costs on the dual-core XT4 (1x2 nodes), the fastest of 30
/// alternating rounds of each kernel. Both kernels' rows are also compared
/// bit for bit.
void expect_row_lanes_faster(int n, int m, double bound) {
  namespace wk = wave::kernels;
  const wave::Context ctx;
  const auto machine = wave::core::MachineConfig::xt4_dual_core();
  const auto comm = machine.make_comm_model(ctx.comm_model_registry());
  const wk::FillCosts k =
      fill_point(wcb::sweep3d_20m(), machine, *comm, wave::topo::Grid(n, m))
          .costs;
  const auto cols = parity(n, machine.cx), rows = parity(m, machine.cy);
  std::vector<wk::FillTime> packed(static_cast<std::size_t>(n) + 1);
  std::vector<wk::FillTime> lanes_row(packed.size());
  wk::FillRowLanes lanes;
  const auto [packed_s, lanes_s] = fastest_pair(
      30,
      [&] {
        wk::fill_packed_lanes(k, cols.data(), rows.data(), n, m,
                              packed.data());
      },
      [&] {
        wk::fill_row_lanes(k, cols.data(), rows.data(), n, m, lanes,
                           lanes_row.data());
      });
  ASSERT_EQ(std::memcmp(packed.data() + 1, lanes_row.data() + 1,
                        static_cast<std::size_t>(n) * sizeof(wk::FillTime)),
            0);
  ASSERT_GT(lanes_s, 0.0);
  const double cells = static_cast<double>(n) * m;
  const double speedup = packed_s / lanes_s;
  std::printf("%dx%d fill: packed %.3f ns/cell, row lanes %.3f ns/cell, "
              "%.2fx\n",
              n, m, packed_s / cells * 1e9, lanes_s / cells * 1e9, speedup);
  EXPECT_GE(speedup, bound) << "the row lanes fell toward the packed lanes";
}

}  // namespace

TEST(PerfGate, FillRowLanesBeatPackedLanesPerCell) {
  SKIP_UNLESS_MEASURABLE();
  if (!wave::kernels::has_row_lanes())
    GTEST_SKIP() << "this CPU lacks AVX-512F/VL";
  expect_row_lanes_faster(256, 256, 1.5);
  expect_row_lanes_faster(1024, 64, 1.5);
}

namespace {

/// One at a time vs point lanes per fill-cell at n x m on the distinct
/// fills of Sweep3D 20M cells under the five shipped machines and three
/// backends (the what-if Study's points at one grid), the fastest of 100
/// alternating rounds of each side (a round takes about a millisecond).
/// Both sides' corners are also compared bit for bit.
void expect_point_lanes_faster(int n, int m, double bound) {
  namespace wk = wave::kernels;
  wave::Context ctx;
  ASSERT_TRUE(ctx.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const auto app = wcb::sweep3d_20m();
  const wave::topo::Grid grid(n, m);
  std::vector<wk::FillPoint> fills;
  for (const char* name : {"xt4-dual", "xt4-single", "sp2", "fatnode-loggps",
                           "quadcore-shared-bus"})
    for (const char* backend : {"loggp", "loggps", "contention"}) {
      wave::core::MachineConfig machine = ctx.resolve_machine(name);
      machine.comm_model = backend;
      const auto comm = machine.make_comm_model(ctx.comm_model_registry());
      const wk::FillPoint f = fill_point(app, machine, *comm, grid);
      if (std::none_of(fills.begin(), fills.end(), [&](const auto& g) {
            return std::memcmp(&f, &g, sizeof f) == 0;
          }))
        fills.push_back(f);
    }
  ASSERT_GE(fills.size(), 9u);
  ASSERT_LE(fills.size(), 15u);
  std::vector<std::vector<std::uint8_t>> cols, rows;
  for (const wk::FillPoint& f : fills) {
    cols.push_back(parity(n, f.cx));
    rows.push_back(parity(m, f.cy));
  }
  std::vector<wk::FillTime> row(static_cast<std::size_t>(n) + 1);
  std::vector<wk::FillCorners> one(fills.size()), side(fills.size());
  wk::FillRowLanes row_lanes;
  wk::FillPointLanes point_lanes;
  const auto [one_s, lanes_s] = fastest_pair(
      100,
      [&] {
        for (std::size_t f = 0; f < fills.size(); ++f) {
          wk::fill_recurrence(fills[f].costs, cols[f].data(), rows[f].data(),
                              n, m, row_lanes, row.data());
          one[f] = {row[1], row[n]};
        }
      },
      [&] {
        const wk::FillPoint* batch[wk::kPointLanesMaxFills];
        for (std::size_t f = 0; f < fills.size(); ++f) batch[f] = &fills[f];
        wk::fill_point_lanes(batch, static_cast<int>(fills.size()), n, m,
                             point_lanes, side.data());
      });
  ASSERT_EQ(std::memcmp(one.data(), side.data(),
                        one.size() * sizeof(wk::FillCorners)),
            0);
  ASSERT_GT(lanes_s, 0.0);
  const double cells = static_cast<double>(n) * m * fills.size();
  const double speedup = one_s / lanes_s;
  std::printf("%dx%d, %zu fills: one at a time %.3f ns/fill-cell, point "
              "lanes %.3f ns/fill-cell, %.2fx\n",
              n, m, fills.size(), one_s / cells * 1e9,
              lanes_s / cells * 1e9, speedup);
  EXPECT_GE(speedup, bound) << "the point lanes fell toward one at a time";
}

}  // namespace

TEST(PerfGate, FillPointLanesBeatOneAtATimePerFillCell) {
  SKIP_UNLESS_MEASURABLE();
  if (!wave::kernels::has_row_lanes())
    GTEST_SKIP() << "this CPU lacks AVX-512F/VL";
  expect_point_lanes_faster(4871, 1, 2.0);
  expect_point_lanes_faster(4871, 8, 2.0);
}

namespace {

/// The calendar sim::Engine used before its radix heap, as the Calendar
/// gate's reference: the same slot per pending task holding the same
/// sim::Task, and the pending set a binary heap (std::push_heap/pop_heap) of
/// 128-bit keys — time bits, then a FIFO sequence number over the slot.
class HeapCalendar {
 public:
  double now() const { return now_; }

  template <typename F>
  void after(double delay, const F& fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(tasks_.size());
      tasks_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    tasks_[slot] = wave::sim::Task(fn);
    const auto bits = std::bit_cast<std::uint64_t>(now_ + delay);
    heap_.push_back(static_cast<Key>(bits) << 64 | (seq_++ << 24 | slot));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const Key top = heap_.back();
      heap_.pop_back();
      now_ = std::bit_cast<double>(static_cast<std::uint64_t>(top >> 64));
      const auto slot = static_cast<std::uint32_t>(top) & 0xffffffu;
      tasks_[slot]();
      free_.push_back(slot);
    }
  }

 private:
  using Key = unsigned __int128;
  std::vector<Key> heap_;
  std::deque<wave::sim::Task> tasks_;  // stable while a task runs
  std::vector<std::uint32_t> free_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

/// Delays with the wavefront DES's mix: at P = 4,096 (Sweep3D 256x256x8
/// on xt4-dual) 6 / 40 / 36 / 7 / 11% of them fall in the octaves
/// 1-2 / 2-4 / 4-8 / 8-16 / 16-32 us. Log-uniform within an octave,
/// from a fixed seed.
std::vector<double> wavefront_delays() {
  constexpr double kShare[] = {0.06, 0.40, 0.36, 0.07, 0.11};
  std::uint64_t state = 0x5eedca1e;
  const auto uniform = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
  };
  std::vector<double> delays(std::size_t{1} << 16);
  for (double& d : delays) {
    double pick = uniform();
    int octave = 0;
    while (octave < 4 && pick >= kShare[octave]) pick -= kShare[octave++];
    d = std::exp2(octave + uniform());
  }
  return delays;
}

/// Hold model: `depth` pending events, each of which reschedules one
/// successor after the next delay of the table until `events` have run.
/// Returns the final clock, which both calendars must agree on.
template <typename Calendar>
double hold(int depth, long long events, const std::vector<double>& delays) {
  struct State {
    Calendar calendar;
    const std::vector<double>* delays;
    std::size_t next = 0;
    long long remaining = 0;
  };
  struct Hold {
    State* s;
    void operator()() const {
      if (--s->remaining < 0) return;
      const std::vector<double>& d = *s->delays;
      s->calendar.after(d[s->next++ & (d.size() - 1)], Hold{s});
    }
  };
  const auto state = std::make_unique<State>();
  state->delays = &delays;
  state->remaining = events - depth;
  for (int i = 0; i < depth; ++i)
    state->calendar.after(delays[state->next++], Hold{state.get()});
  state->calendar.run();
  return state->calendar.now();
}

}  // namespace

TEST(PerfGate, CalendarBeatsBinaryHeapAtWavefrontDepth) {
  SKIP_UNLESS_MEASURABLE();
  // The pending peak of the serial wavefront at P = 16,384 (24,211).
  constexpr int kDepth = 24'576;
  constexpr long long kEvents = 300'000;
  const std::vector<double> delays = wavefront_delays();
  double radix_end = 0.0, heap_end = 0.0;
  const auto [radix_s, heap_s] = fastest_pair(
      9,
      [&] { radix_end = hold<wave::sim::Engine>(kDepth, kEvents, delays); },
      [&] { heap_end = hold<HeapCalendar>(kDepth, kEvents, delays); });
  ASSERT_EQ(radix_end, heap_end) << "the two calendars ran different streams";
  ASSERT_GT(radix_s, 0.0);
  const double speedup = heap_s / radix_s;
  std::printf("hold model, depth %d: binary heap %.1f ns/event, radix heap "
              "%.1f ns/event, %.2fx\n",
              kDepth, heap_s / kEvents * 1e9, radix_s / kEvents * 1e9,
              speedup);
  EXPECT_GE(speedup, 1.2) << "the radix calendar fell toward the heap";
}

TEST(PerfGate, MetricsObserverKeepsNinetyPercentOfPlainEventRate) {
  SKIP_UNLESS_MEASURABLE();
  const wave::Context ctx;
  const auto workload =
      wave::workloads::get_workload(ctx.workload_registry(), "wavefront");
  const auto machine = wave::core::MachineConfig::xt4_dual_core();
  // The determinism contract makes both runs event-for-event identical,
  // so the wall-time ratio is the events/s ratio.
  const auto simulate = [&](bool with_metrics) {
    wave::obs::MetricsRegistry registry;
    wave::workloads::WorkloadInputs in;
    in.grid = wave::topo::Grid(16, 16);
    if (with_metrics) in.observers.metrics = &registry;
    workload->simulate(machine, ctx.comm_model_registry(), in);
  };
  constexpr int kPairs = 11;
  const double ratio = median_ratio(
      kPairs, [&] { simulate(false); }, [&] { simulate(true); });
  std::printf("16x16 wavefront DES: median plain/metrics time over %d "
              "pairs %.3fx\n",
              kPairs, ratio);
  EXPECT_GE(ratio, 0.90) << "the metrics observer is no longer near free";
}
