// Property tests for the heap-ordered Engine against a trivially-correct
// reference: a std::priority_queue ordered by (time, seq).
//
// The engine's ordering contract — events pop in exact (time,
// insertion-seq) order, equal times FIFO by seq — is what every layer
// above leans on, up to the pinned fixtures' bitwise-determinism
// guarantee. The engine earns that contract through a packed 128-bit key
// (time bits | seq | slab slot) and a task slab indexed by that slot, so
// these tests drive it in lockstep with a model whose correctness is
// obvious and require the two to agree on every single event.
//
// The generator grows a random event tree: roots are scheduled up front,
// and every executed event spawns 0-2 children at times derived from its
// own rng state, so the tree's shape depends only on the seed — never on
// traversal order — and both executors replay the identical schedule. The
// engine spawns on execution, the model on pop; both assign the next seq
// in their own spawn order, so any ordering divergence desynchronizes the
// (time, seq) streams and fails loudly at the first differing event.
// Four stream shapes stress distinct key patterns:
//   - uniform:    deltas spread over a wide time range (steady advance)
//   - clustered:  dense bursts + occasional jumps (near-equal times)
//   - equal-time: zero deltas (FIFO tie-breaking by seq alone)
//   - far-future: rare ~1e12 deltas (large exponents in the time bits)
// Two deep inputs schedule 65,536 roots up front, so the pending depth
// exceeds what the serial wavefront reaches at P = 16,384 (~24k events).
#include <gtest/gtest.h>

#include <cstdint>
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

enum class Shape { kUniform, kClustered, kEqualTime, kFarFuture };

/// The child-delay distribution: one per stream shape. Shared by
/// both executors, so they consume the rng stream identically.
double delta_for(Shape shape, std::uint64_t& rng) {
  const double select = unit(rng);
  const double u = unit(rng);
  switch (shape) {
    case Shape::kUniform:
      return u * 100.0;
    case Shape::kClustered:
      return select < 0.9 ? u * 1e-3 : 50.0 + u * 100.0;
    case Shape::kEqualTime:
      return select < 0.4 ? 0.0 : u * 10.0;
    case Shape::kFarFuture:
      return select < 0.02 ? 1e12 * (0.5 + u) : u;
  }
  return 0.0;
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
        model_.push({e.time + delta_for(shape_, rng), model_seq_++,
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
      const double t = engine_.now() + delta_for(shape_, rng);
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
    const double t0 = unit(rng) * 1000.0;
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
