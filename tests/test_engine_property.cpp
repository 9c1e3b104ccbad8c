// Property tests for the Engine's radix-heap calendar against a
// trivially-correct reference: a std::priority_queue ordered by (time, seq).
//
// The engine's ordering contract — events pop in exact (time,
// insertion-seq) order, equal times FIFO by seq — is what every layer
// above leans on, up to the pinned fixtures' bitwise-determinism
// guarantee. The engine earns that contract without ever comparing seqs:
// pending events wait in buckets keyed on the bits of their time, and
// each bucket keeps schedule order through every redistribution. So
// these tests drive it in lockstep with a model whose correctness is
// obvious and require the two to agree on every single event.
//
// The generator grows a random event tree: roots are scheduled up front,
// and every executed event spawns 0-2 children at times derived from its
// own time and rng state, so the tree's shape depends only on the seed —
// never on traversal order — and both executors replay the identical
// schedule. The engine spawns on execution, the model on pop; both assign
// the next seq in their own spawn order, so any ordering divergence
// desynchronizes the (time, seq) streams and fails loudly at the first
// differing event. The stream shapes stress distinct key patterns:
//   - uniform:    deltas spread over a wide time range (steady advance)
//   - clustered:  dense bursts + occasional jumps (near-equal times)
//   - equal-time: zero deltas (FIFO tie-breaking by seq alone)
//   - far-future: rare ~1e12 deltas (large exponents in the time bits)
// and four aimed at the radix layout:
//   - binade:     times a few ulps either side of a power of two, where
//                 the highest differing bit jumps from the exponent down
//                 into the mantissa
//   - grid:       times on a coarse grid, each one scheduled both from
//                 far away (a high bucket, redistributed on the way down)
//                 and from close by, after those redistributions
//   - tiny:       roots at +0.0, -0.0 and subnormal times, children up
//                 into the normal range
//   - huge-jump:  a rare jump to ~1e300, where small deltas vanish into
//                 the ulp and every later event ties
// Two deep inputs schedule 65,536 roots up front, so the pending depth
// exceeds what the serial wavefront reaches at P = 16,384 (~24k events).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "sim/engine.h"

namespace ws = wave::sim;

namespace {

/// splitmix64: tiny, seedable, and good enough to exercise every regime.
std::uint64_t next_u64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

enum class Shape {
  kUniform,
  kClustered,
  kEqualTime,
  kFarFuture,
  kBinade,
  kGrid,
  kTiny,
  kHugeJump
};

/// A root's time: one per stream shape, drawn when it is scheduled.
double root_time(Shape shape, std::uint64_t& rng) {
  const double u = unit(rng);
  if (shape != Shape::kTiny) return u * 1000.0;
  // +0.0, -0.0, a few subnormals, or the smallest normals.
  constexpr double kTiniest = std::numeric_limits<double>::denorm_min();
  constexpr double kSmallestNormal = std::numeric_limits<double>::min();
  switch (next_u64(rng) % 4) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return static_cast<double>(next_u64(rng) % 8) * kTiniest;
    default:
      return kSmallestNormal + static_cast<double>(next_u64(rng) % 4) *
                                   kTiniest;
  }
}

/// A child's time, from its parent's time `now`: one distribution per
/// stream shape. Shared by both executors, so they consume the rng
/// stream identically and compute bit-identical times.
double child_time(Shape shape, double now, std::uint64_t& rng) {
  const double select = unit(rng);
  const double u = unit(rng);
  switch (shape) {
    case Shape::kUniform:
      return now + u * 100.0;
    case Shape::kClustered:
      return now + (select < 0.9 ? u * 1e-3 : 50.0 + u * 100.0);
    case Shape::kEqualTime:
      return now + (select < 0.4 ? 0.0 : u * 10.0);
    case Shape::kFarFuture:
      return now + (select < 0.02 ? 1e12 * (0.5 + u) : u);
    case Shape::kBinade: {
      // The next power of two above now (or one a few binades up), then
      // up to 4 ulps either side of it, never before now.
      int exp = 0;
      std::frexp(now, &exp);
      const double edge = std::ldexp(1.0, exp + static_cast<int>(u * 3.0));
      double t = edge;
      const int ulps = static_cast<int>(next_u64(rng) % 9) - 4;
      for (int k = 0; k < std::abs(ulps); ++k)
        t = std::nextafter(t, ulps < 0 ? 0.0 : edge * 2.0);
      return std::max(now, select < 0.2 ? now + u : t);
    }
    case Shape::kGrid:
      // A point of the 0.375 grid up to 40 ahead: far events park in high
      // buckets, near ones schedule onto the same times later.
      return std::max(now, std::ceil((now + u * (select < 0.5 ? 40.0 : 1.0)) /
                                     0.375) *
                               0.375);
    case Shape::kTiny: {
      constexpr double kTiniest = std::numeric_limits<double>::denorm_min();
      if (select < 0.45)
        return now + static_cast<double>(next_u64(rng) % 4) * kTiniest;
      if (select < 0.9) return now + u * 1e-310;  // still subnormal
      return now + u * 1e-300;
    }
    case Shape::kHugeJump:
      return select < 0.001 ? std::max(now, 1e300 * (1.0 + u)) : now + u;
  }
  return now;
}

/// 0-2 children with mean 1 (critical branching): chains neither die out
/// immediately nor explode, so depth bounds the expected tree size.
int kids_for(std::uint64_t& rng) {
  const double u = unit(rng);
  return u < 0.25 ? 0 : (u < 0.75 ? 1 : 2);
}

struct ModelEvent {
  double time;
  std::uint64_t seq;
  std::uint64_t rng;
  int depth;
};

struct ModelAfter {
  bool operator()(const ModelEvent& a, const ModelEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Both executors under one roof. schedule() is the shared entry point for
/// externally-injected events (roots, mid-window injections): it lands the
/// identical (time, rng, depth) on both sides in the same call order, so
/// insertion seqs start aligned. From there each side unrolls the event
/// tree itself — the engine in engine_spawn() on execution, the model in
/// drain_model_all() on pop — assigning child seqs in its own spawn
/// order. Matching pop order keeps the counters in lockstep; any engine
/// misordering desynchronizes them and the trace comparison fails.
class DualDriver {
 public:
  explicit DualDriver(Shape shape) : shape_(shape) {}

  void schedule(double time, std::uint64_t rng, int depth) {
    model_.push({time, model_seq_++, rng, depth});
    engine_.at(time, [this, rng, depth] { engine_spawn(rng, depth); });
  }

  /// Pops every model event, returning the expected (time, seq) stream
  /// and spawning children exactly as the engine does on execution.
  std::vector<ws::TraceEvent> drain_model_all() {
    std::vector<ws::TraceEvent> out;
    while (!model_.empty()) {
      ModelEvent e = model_.top();
      model_.pop();
      out.push_back({e.time, e.seq});
      if (e.depth <= 0) continue;
      std::uint64_t rng = e.rng;
      const int kids = kids_for(rng);
      for (int k = 0; k < kids; ++k) {
        const std::uint64_t child_rng = next_u64(rng);
        model_.push({child_time(shape_, e.time, rng), model_seq_++,
                     child_rng, e.depth - 1});
      }
    }
    return out;
  }

  ws::Engine& engine() { return engine_; }

 private:
  void engine_spawn(std::uint64_t rng, int depth) {
    if (depth <= 0) return;
    const int kids = kids_for(rng);
    for (int k = 0; k < kids; ++k) {
      const std::uint64_t child_rng = next_u64(rng);
      const double t = child_time(shape_, engine_.now(), rng);
      engine_.at(t, [this, child_rng, depth] {
        engine_spawn(child_rng, depth - 1);
      });
    }
  }

  Shape shape_;
  ws::Engine engine_;
  std::priority_queue<ModelEvent, std::vector<ModelEvent>, ModelAfter> model_;
  std::uint64_t model_seq_ = 0;
};

void expect_identical(const std::vector<ws::TraceEvent>& expected,
                      const std::vector<ws::TraceEvent>& trace) {
  ASSERT_EQ(expected.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(expected[i].seq, trace[i].seq) << "divergence at event " << i;
    ASSERT_EQ(expected[i].time, trace[i].time)
        << "divergence at event " << i;
  }
}

/// Runs `roots` critically-branching trees of depth `depth` through both
/// executors and requires the exact same (time, seq) stream.
void run_shape(Shape shape, std::uint64_t seed, int roots, int depth,
               std::size_t min_events) {
  DualDriver driver(shape);
  std::uint64_t rng = seed;
  for (int r = 0; r < roots; ++r) {
    const double t0 = root_time(shape, rng);
    driver.schedule(t0, next_u64(rng), depth);
  }

  std::vector<ws::TraceEvent> trace;
  driver.engine().set_trace(&trace);
  driver.engine().run();
  const std::vector<ws::TraceEvent> expected =
      driver.drain_model_all();

  ASSERT_GE(trace.size(), min_events)
      << "stream too small to be meaningful — retune roots/depth";
  EXPECT_GE(driver.engine().max_pending(), static_cast<std::size_t>(roots));
  expect_identical(expected, trace);
}

}  // namespace

TEST(EngineProperty, UniformStreamMatchesPriorityQueue) {
  run_shape(Shape::kUniform, 0x5eed0001, 20000, 63, 500000);
}

TEST(EngineProperty, ClusteredStreamMatchesPriorityQueue) {
  run_shape(Shape::kClustered, 0x5eed0002, 20000, 63, 500000);
}

TEST(EngineProperty, EqualTimeBurstsMatchPriorityQueue) {
  run_shape(Shape::kEqualTime, 0x5eed0003, 20000, 63, 500000);
}

TEST(EngineProperty, FarFutureOutliersMatchPriorityQueue) {
  run_shape(Shape::kFarFuture, 0x5eed0004, 5000, 63, 100000);
}

TEST(EngineProperty, DeepUniformStreamMatchesPriorityQueue) {
  run_shape(Shape::kUniform, 0x5eed0006, 1 << 16, 8, 400000);
}

TEST(EngineProperty, DeepEqualTimeBurstsMatchPriorityQueue) {
  run_shape(Shape::kEqualTime, 0x5eed0007, 1 << 16, 8, 400000);
}

TEST(EngineProperty, BinadeStraddlingTimesMatchPriorityQueue) {
  run_shape(Shape::kBinade, 0x5eed0008, 20000, 63, 300000);
}

TEST(EngineProperty, GridTimesScheduledFarAndNearMatchPriorityQueue) {
  run_shape(Shape::kGrid, 0x5eed0009, 20000, 63, 300000);
}

TEST(EngineProperty, ZeroAndSubnormalTimesMatchPriorityQueue) {
  run_shape(Shape::kTiny, 0x5eed000a, 20000, 63, 300000);
}

TEST(EngineProperty, JumpToHugeTimesMatchesPriorityQueue) {
  run_shape(Shape::kHugeJump, 0x5eed000b, 20000, 63, 300000);
}
