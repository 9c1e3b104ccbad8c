// Tests for the discrete-event engine: ordering, determinism, limits.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace ws = wave::sim;

TEST(Engine, ExecutesInTimeOrder) {
  ws::Engine e;
  std::vector<int> order;
  e.at(3.0, [&] { order.push_back(3); });
  e.at(1.0, [&] { order.push_back(1); });
  e.at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, EqualTimesAreFifo) {
  ws::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.at(5.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CallbacksMaySchedule) {
  ws::Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.after(1.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RejectsPastScheduling) {
  ws::Engine e;
  bool checked = false;
  e.at(10.0, [&] {
    EXPECT_THROW(e.at(5.0, [] {}), wave::common::contract_error);
    EXPECT_THROW(e.after(-1.0, [] {}), wave::common::contract_error);
    checked = true;
  });
  e.run();
  EXPECT_TRUE(checked);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace = [] {
    ws::Engine e;
    std::vector<double> times;
    for (int i = 0; i < 100; ++i) {
      e.at(static_cast<double>((i * 37) % 50),
           [&times, &e] { times.push_back(e.now()); });
    }
    e.run();
    return times;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(FifoResource, GrantsImmediatelyWhenIdle) {
  ws::FifoResource r;
  EXPECT_DOUBLE_EQ(r.reserve(5.0, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(r.free_at(), 7.0);
  EXPECT_DOUBLE_EQ(r.wait_total(), 0.0);
}

TEST(FifoResource, QueuesOverlappingRequests) {
  ws::FifoResource r;
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(1.0, 3.0), 3.0);  // pushed behind the first
  EXPECT_DOUBLE_EQ(r.reserve(10.0, 1.0), 10.0);  // idle again
  EXPECT_DOUBLE_EQ(r.wait_total(), 2.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 7.0);
}

TEST(FifoResource, ZeroDurationIsAllowed) {
  ws::FifoResource r;
  EXPECT_DOUBLE_EQ(r.reserve(1.0, 0.0), 1.0);
  EXPECT_THROW(r.reserve(1.0, -1.0), wave::common::contract_error);
}

TEST(EngineStress, HundredThousandEventChurnIsExact) {
  // 100k-event churn: 64 interleaved self-rescheduling chains (steady
  // near-future traffic, the DES pattern) plus a band of far events.
  // events_processed and the final clock are pinned — any change to the
  // pending set or the task slab must leave both untouched.
  ws::Engine e;
  constexpr int kChains = 64;
  constexpr int kPerChain = 1562;           // 64 * 1562 = 99'968
  constexpr int kFarEvents = 32;            // ... + 32 = 100'000
  struct Probe {
    ws::Engine* engine;
    double last_seen = 0.0;  // monotonicity probe
  };
  struct Chain {
    Probe* probe;
    int* remaining;
    double period;
    void operator()() const {
      ws::Engine* engine = probe->engine;
      EXPECT_GE(engine->now(), probe->last_seen);
      probe->last_seen = engine->now();
      if (--*remaining > 0) engine->after(period, *this);
    }
  };
  int remaining[kChains];
  Probe probe{&e};
  double& last_seen = probe.last_seen;
  for (int c = 0; c < kChains; ++c) {
    remaining[c] = kPerChain;
    e.at(0.0, Chain{&probe, &remaining[c], 1.0 + 0.01 * c});
  }
  for (int i = 0; i < kFarEvents; ++i) {
    e.at(3000.0 + i, [&e, &last_seen] {
      EXPECT_GE(e.now(), last_seen);
      last_seen = e.now();
    });
  }

  e.run();

  EXPECT_EQ(e.events_processed(), 100'000u);
  // Chain c's last event fires after (kPerChain - 1) periods; the far
  // band ends at 3031. The last chain event is at 1561 * 1.63 = 2544.43,
  // so the far band finishes last.
  EXPECT_DOUBLE_EQ(e.now(), 3000.0 + (kFarEvents - 1));
  for (int c = 0; c < kChains; ++c) EXPECT_EQ(remaining[c], 0);
}

TEST(EngineStress, EqualTimeBurstPreservesFifoAtScale) {
  // A World-startup-shaped burst: thousands of events at the same
  // instant must run in exact insertion order (the seq tie-break), since
  // a heap by itself is not stable.
  ws::Engine e;
  std::vector<int> order;
  order.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    e.at(7.5, [&order, i] { order.push_back(i); });
  }
  e.run();
  ASSERT_EQ(order.size(), 4096u);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(e.events_processed(), 4096u);
  EXPECT_DOUBLE_EQ(e.now(), 7.5);
}

TEST(Task, CopiesAndInvokes) {
  // A task is a function pointer and the callable's bytes: a copy runs
  // the same callable on its own copy of the captures.
  int hits = 0;
  int sum = 0;
  ws::Task task([&hits, &sum, step = 7] {
    ++hits;
    sum += step;
  });
  ws::Task copy = task;
  task();
  copy();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sum, 14);
}

// What Engine::at accepts: small trivially copyable callables only, so no
// scheduled event can own state that would need moving or destroying.
template <typename F>
constexpr bool kSchedulable = requires(ws::Engine& e, const F& fn) {
  e.at(0.0, fn);
};
static_assert(kSchedulable<decltype([] {})>);
static_assert(!kSchedulable<std::function<void()>>);
static_assert(!kSchedulable<decltype([p = std::shared_ptr<int>()] {})>);
static_assert(!kSchedulable<decltype([bytes = std::array<char, 25>()] {})>);
