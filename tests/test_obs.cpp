// The observability layer: the metrics core (counters, gauges, log2
// histograms behind a MetricsRegistry), the renderers (Prometheus
// exposition and JSON), the hoisted percentile math, the span tracer and
// its Chrome trace-event output, and the inertness contract — attaching
// instrumentation must never change a simulation result by a single bit.
//
// The Obs* suite names are load-bearing: the TSan CI leg selects its
// concurrency suites by regex (.github/workflows/ci.yml), and
// ObsRegistryConcurrency is this layer's entry in that list.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/statistics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "wave/wave.h"
#include "workloads/registry.h"

namespace wc = wave::common;
namespace wo = wave::obs;
namespace ws = wave::serve;
namespace ww = wave::workloads;

namespace {

/// Parses `text` as JSON or fails the test with the parser's message.
ws::JsonValue parse_or_fail(const std::string& text) {
  ws::JsonValue value;
  std::string error;
  EXPECT_TRUE(ws::parse_json(text, value, error)) << error;
  return value;
}

/// A small traced wavefront run: P ranks, one iteration, spans captured.
ww::SimOutput traced_wavefront(const wave::Context& ctx, int processors,
                               wo::SpanCapture* capture,
                               wo::MetricsRegistry* registry = nullptr) {
  const auto workload =
      ww::get_workload(ctx.workload_registry(), "wavefront");
  ww::WorkloadInputs in;
  in.grid = wave::topo::closest_to_square(processors);
  in.iterations = 1;
  in.observers.trace = capture;
  in.observers.metrics = registry;
  return workload->simulate(wave::core::MachineConfig::xt4_dual_core(),
                            ctx.comm_model_registry(), in);
}

}  // namespace

// ---- metrics core ------------------------------------------------------

TEST(ObsMetrics, CounterAccumulates) {
  wo::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetrics, GaugeSetAddAndHighWaterMark) {
  wo::Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set_max(5);
  EXPECT_EQ(g.value(), 7);  // below the mark: unchanged
  g.set_max(19);
  EXPECT_EQ(g.value(), 19);
}

TEST(ObsMetrics, HistogramBucketLayout) {
  // Bucket 0 takes everything below 1 — including the "caller bug"
  // observations (negative, NaN), which must count rather than crash.
  EXPECT_EQ(wo::Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(wo::Histogram::bucket_of(0.999), 0);
  EXPECT_EQ(wo::Histogram::bucket_of(-5.0), 0);
  EXPECT_EQ(wo::Histogram::bucket_of(std::nan("")), 0);
  // Bucket i covers [2^(i-1), 2^i).
  EXPECT_EQ(wo::Histogram::bucket_of(1.0), 1);
  EXPECT_EQ(wo::Histogram::bucket_of(1.9), 1);
  EXPECT_EQ(wo::Histogram::bucket_of(2.0), 2);
  EXPECT_EQ(wo::Histogram::bucket_of(1024.0), 11);
  // Far past 2^63: clamps to the last bucket instead of overflowing.
  EXPECT_EQ(wo::Histogram::bucket_of(1e300), wo::Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(wo::Histogram::bucket_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(wo::Histogram::bucket_bound(11), 2048.0);
}

TEST(ObsMetrics, HistogramObserveCountsAndSums) {
  wo::Histogram h;
  h.observe(0.5);
  h.observe(3.0);
  h.observe(3.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);  // [2, 4)
}

TEST(ObsMetrics, RegistryFindOrCreateIsStable) {
  wo::MetricsRegistry reg;
  wo::Counter& a = reg.counter("x_total");
  wo::Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);  // same name, same instrument
  a.add(3);
  // Creating more instruments must not move the earlier reference.
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(static_cast<void*>(&reg.gauge("x_total")),
            static_cast<void*>(&a));  // kinds are separate namespaces
}

TEST(ObsMetrics, SnapshotIsSortedAndCompletePerKind) {
  wo::MetricsRegistry reg;
  reg.counter("zeta_total").add(2);
  reg.counter("alpha_total").add(1);
  reg.gauge("depth").set(-4);
  reg.histogram("lat_us").observe(100.0);

  const wave::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[1].name, "zeta_total");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 100.0);
  // 100 lands in [64, 128): bucket-resolution percentiles report the
  // upper bound of that bucket.
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 128.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p99, 128.0);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(wo::MetricsRegistry().snapshot().empty());
}

// ---- renderers ---------------------------------------------------------

TEST(ObsRender, PrometheusExposition) {
  wo::MetricsRegistry reg;
  reg.counter("events_total").add(7);
  reg.gauge("queue_depth").set(3);
  wo::Histogram& h = reg.histogram("lat_us");
  h.observe(1.5);   // bucket le=2
  h.observe(3.0);   // bucket le=4
  h.observe(3.5);   // bucket le=4

  const std::string text = wave::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE events_total counter\nevents_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 3\n"),
            std::string::npos);
  // Bucket counts are cumulative and end with the +Inf total.
  EXPECT_NE(text.find("lat_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 8\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 3\n"), std::string::npos);
  // Deterministic: identical state renders byte-identical text.
  EXPECT_EQ(text, wave::to_prometheus(reg.snapshot()));
}

TEST(ObsRender, JsonRoundTripsThroughTheProtocolParser) {
  wo::MetricsRegistry reg;
  reg.counter("events_total").add(7);
  reg.gauge("depth").set(-2);
  reg.histogram("lat_us").observe(100.0);

  const ws::JsonValue root = parse_or_fail(wave::to_json(reg.snapshot()));
  ASSERT_TRUE(root.is_object());
  const ws::JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("events_total"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("events_total")->number, 7.0);
  const ws::JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("depth")->number, -2.0);
  const ws::JsonValue* hist = root.find("histograms")->find("lat_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("p99")->number, 128.0);
  ASSERT_TRUE(hist->find("buckets")->is_array());
  ASSERT_EQ(hist->find("buckets")->items.size(), 1u);
}

// ---- hoisted percentile math (common/statistics) -----------------------

TEST(ObsPercentiles, EmptySampleYieldsZeros) {
  std::vector<double> xs;
  const wc::Percentiles p = wc::percentiles(xs);
  EXPECT_DOUBLE_EQ(p.p50, 0.0);
  EXPECT_DOUBLE_EQ(p.p99, 0.0);
}

TEST(ObsPercentiles, SingleSampleIsBothPercentiles) {
  std::vector<double> xs = {42.0};
  const wc::Percentiles p = wc::percentiles(xs);
  EXPECT_DOUBLE_EQ(p.p50, 42.0);
  EXPECT_DOUBLE_EQ(p.p99, 42.0);
}

TEST(ObsPercentiles, TiesResolveByRankNotInterpolation) {
  std::vector<double> xs = {5.0, 1.0, 5.0, 5.0, 1.0, 1.0};
  const wc::Percentiles p = wc::percentiles(xs);
  // Sorted: 1 1 1 5 5 5; rank floor(6*50/100) = 3 -> 5, never 3.0.
  EXPECT_DOUBLE_EQ(p.p50, 5.0);
  EXPECT_DOUBLE_EQ(p.p99, 5.0);
}

TEST(ObsPercentiles, RankConventionMatchesNearestRankFloor) {
  EXPECT_EQ(wc::percentile_rank(1, 50), 0u);
  EXPECT_EQ(wc::percentile_rank(100, 50), 50u);
  EXPECT_EQ(wc::percentile_rank(100, 99), 99u);
  EXPECT_EQ(wc::percentile_rank(10, 100), 9u);  // clamped into [0, n-1]
}

// ---- registry concurrency (selected by the TSan CI leg) ----------------

TEST(ObsRegistryConcurrency, ConcurrentUpdatesAndRegistrationsAreExact) {
  wo::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &go, t] {
      while (!go.load()) {
      }
      // Every thread races find-or-create on the shared names AND
      // registers its own — exercising the registration mutex against
      // concurrent lock-free updates.
      wo::Counter& shared = reg.counter("shared_total");
      wo::Histogram& lat = reg.histogram("lat_us");
      wo::Gauge& high = reg.gauge("high_water");
      reg.counter("private_" + std::to_string(t) + "_total").add(1);
      for (int i = 0; i < kOps; ++i) {
        shared.add(1);
        lat.observe(static_cast<double>(i % 1024));
        high.set_max(i);
        if (i % 4096 == 0) (void)reg.snapshot();  // readers race writers
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(reg.counter("shared_total").value(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(reg.histogram("lat_us").count(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(reg.gauge("high_water").value(), kOps - 1);
  const wave::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u + kThreads);
}

// ---- span tracer -------------------------------------------------------

TEST(ObsTrace, SpanBufferIsBoundedAndTruncatesLoudly) {
  wo::SpanBuffer buf(2);
  wo::Span s;
  buf.record(s);
  buf.record(s);
  EXPECT_FALSE(buf.truncated());
  buf.record(s);  // past the cap: dropped, marked
  EXPECT_EQ(buf.spans().size(), 2u);
  EXPECT_TRUE(buf.truncated());
}

TEST(ObsTrace, CaptureClaimBindsOneWorldAtATime) {
  wo::SpanCapture capture;
  EXPECT_FALSE(capture.claimed());
  EXPECT_TRUE(capture.try_claim());
  EXPECT_FALSE(capture.try_claim());  // second claimant loses
  EXPECT_TRUE(capture.claimed());
}

TEST(ObsTrace, WavefrontRunProducesValidChromeTraceJson) {
  const wave::Context ctx;
  wo::SpanCapture capture;
  const ww::SimOutput out = traced_wavefront(ctx, 16, &capture);
  ASSERT_GT(out.events, 0u);
  ASSERT_GT(capture.total_spans(), 0u);

  std::ostringstream os;
  wo::write_chrome_trace(os, capture);
  const ws::JsonValue root = parse_or_fail(os.str());
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("displayTimeUnit")->text, "ms");
  const ws::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), capture.total_spans());

  for (const ws::JsonValue& ev : events->items) {
    ASSERT_TRUE(ev.is_object());
    // Complete events: name/ph/ts/dur/pid/tid are the schema Perfetto
    // needs; args carries the peer and payload size.
    ASSERT_NE(ev.find("name"), nullptr);
    const std::string& name = ev.find("name")->text;
    EXPECT_TRUE(name == "compute" || name == "send" || name == "recv" ||
                name == "wait" || name == "exchange")
        << name;
    EXPECT_EQ(ev.find("ph")->text, "X");
    EXPECT_GE(ev.find("ts")->number, 0.0);
    EXPECT_GE(ev.find("dur")->number, 0.0);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    ASSERT_NE(ev.find("args"), nullptr);
  }
}

// ---- inertness: instrumentation never changes results ------------------

TEST(ObsInertness, MetricsAndTracingDoNotPerturbTheSimulation) {
  const wave::Context ctx;
  const ww::SimOutput plain = traced_wavefront(ctx, 16, nullptr, nullptr);

  wo::SpanCapture capture;
  wo::MetricsRegistry registry;
  const ww::SimOutput instrumented =
      traced_wavefront(ctx, 16, &capture, &registry);

  EXPECT_EQ(plain.events, instrumented.events);
  EXPECT_EQ(plain.messages, instrumented.messages);
  EXPECT_EQ(plain.makespan_us, instrumented.makespan_us);  // bitwise
  EXPECT_EQ(plain.time_us, instrumented.time_us);

  // And the instruments did observe the run.
  const wave::MetricsSnapshot snap = registry.snapshot();
  bool saw_events = false;
  for (const auto& c : snap.counters) {
    if (c.name == "sim_events_total") {
      saw_events = true;
      EXPECT_EQ(c.value, instrumented.events);
    }
  }
  EXPECT_TRUE(saw_events);
}

// ---- facade surfaces ---------------------------------------------------

TEST(ObsFacade, EvalServiceExportsShardLatencyHistograms) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query q = ctx.query().machine("xt4-dual").processors(64);
  ASSERT_TRUE(service.evaluate(q).ok());  // miss
  ASSERT_TRUE(service.evaluate(q).ok());  // hit

  const wave::MetricsSnapshot snap = service.metrics();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& h : snap.histograms) {
    if (h.name.find("_hit_latency_us") != std::string::npos) hits += h.count;
    if (h.name.find("_miss_latency_us") != std::string::npos)
      misses += h.count;
  }
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);
}

TEST(ObsFacade, QueryTraceWritesALoadableFile) {
  const std::string path = testing::TempDir() + "obs_query_trace.json";
  const wave::Context ctx;
  const auto result = ctx.query()
                          .machine("xt4-dual")
                          .processors(16)
                          .engine(wave::Engine::Simulation)
                          .trace(path)
                          .run();
  ASSERT_TRUE(result.ok()) << result.status().message();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::ostringstream content;
  content << in.rdbuf();
  const ws::JsonValue root = parse_or_fail(content.str());
  const ws::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->items.empty());
  std::remove(path.c_str());
}
