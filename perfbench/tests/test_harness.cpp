// Self-tests of the benchmark's own code (harness.h): the percentile
// convention, metric names, rounds, the tracer and the result line. The
// bound checker's tests are test_spread.py. Build and run:
//   cmake -S perfbench -B .bench_build/perfbench-tests -DPERFBENCH_TESTS=ON
//   cmake --build .bench_build/perfbench-tests --target perfbench_tests
//   .bench_build/perfbench-tests/perfbench_tests
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>
#include <sstream>

#include "common/statistics.h"
#include "harness.h"
#include "serve/json.h"

namespace perfbench {
namespace {

TEST(Percentile, MatchesTheRepositoryConvention) {
  std::mt19937_64 rng(7);
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<double> xs(n);
    for (double& x : xs) x = static_cast<double>(rng() % 1000);
    std::vector<double> copy = xs;
    const wave::common::Percentiles want = wave::common::percentiles(copy);
    EXPECT_EQ(percentile(xs, 50), want.p50) << "n=" << n;
    EXPECT_EQ(percentile(xs, 99), want.p99) << "n=" << n;
    EXPECT_EQ(median(xs), want.p50) << "n=" << n;
  }
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Rounds, ReportTheBestFullRound) {
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](double round) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(round *
                                                  Rounds::kRoundSeconds));
  };
  Rounds rounds(t0);
  for (int i = 0; i < 100; ++i) rounds.latency(at(0.5), 20.0 + i % 3);  // slow
  for (int i = 0; i < 100; ++i) rounds.latency(at(1.5), 10.0 + i % 3);  // fast
  // A stub round with a tenth of the samples never wins, however fast.
  for (int i = 0; i < 10; ++i) rounds.latency(at(2.5), 1.0);
  rounds.work(at(0.2), 100.0, 0.5);
  rounds.work(at(0.7), 100.0, 0.5);
  rounds.work(at(1.2), 300.0, 1.0);
  rounds.work(at(2.2), 1000.0, 0.1);  // too little busy time to count
  const Rounds::Best best = rounds.best();
  EXPECT_EQ(best.p50_us, 11.0);
  EXPECT_EQ(best.tail_us, 12.0);  // p90: fewer than 1,000 samples per round
  EXPECT_EQ(best.per_s, 300.0);

  Rounds big(t0);
  for (int i = 0; i < 1000; ++i) big.latency(at(0.1), i < 989 ? 1.0 : 50.0);
  EXPECT_EQ(big.best().tail_us, 50.0);  // p99 from 1,000 samples on
}

TEST(MetricNames, UseOnlyTheAllowedCharacters) {
  for (const char* ok : {"setup_s", "sim.ns_per_event.p16384",
                         "trace.overhead_pct", "api.key_us", "9lives",
                         "a-b.c_d"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", ".dot", "_under", "with space", "a/b", "a\"b",
                          "p50\xc2\xb5s"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  for (const char* ok : {"s", "us", "1/s", "%", "MiB", "count"})
    EXPECT_TRUE(valid_unit(ok)) << ok;
  for (const char* bad : {"", "µs", "a b", "abcdefghijklmnopq"})
    EXPECT_FALSE(valid_unit(bad)) << bad;
}

TEST(MetricNames, EveryNameInTheSpecIsValid) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in) << PERFBENCH_SPEC;
  std::ostringstream text;
  text << in.rdbuf();
  wave::serve::JsonValue spec;
  std::string error;
  ASSERT_TRUE(wave::serve::parse_json(text.str(), spec, error)) << error;
  std::size_t seen = 0;
  for (const char* list : {"end_to_end", "per_layer", "workloads"}) {
    const auto* items = spec.find(list);
    ASSERT_NE(items, nullptr) << list;
    for (const auto& item : items->items) {
      const auto* name = item.find("name");
      ASSERT_NE(name, nullptr);
      EXPECT_TRUE(valid_metric_name(name->text)) << name->text;
      if (const auto* unit = item.find("unit"))
        EXPECT_TRUE(valid_unit(unit->text)) << unit->text;
      ++seen;
    }
  }
  EXPECT_GT(seen, 10u);
}

TEST(ResultLine, ParsesWithTheServeJsonParser) {
  Outcome outcome;
  outcome.check(true);
  outcome.check(false);
  outcome.add("latency_p50_us", 12.345678901234567, "us");
  outcome.add("tiny", 1e-300, "s");
  outcome.add("trace.overhead_pct", -3.25, "%");
  const std::string line = render_outcome(outcome);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  wave::serve::JsonValue root;
  std::string error;
  ASSERT_TRUE(wave::serve::parse_json(line, root, error)) << error;
  ASSERT_EQ(root.members.size(), 4u);
  EXPECT_EQ(root.members[0].first, "correct");
  EXPECT_EQ(root.members[1].first, "attempted");
  EXPECT_EQ(root.members[2].first, "failed");
  EXPECT_EQ(root.members[3].first, "metrics");
  EXPECT_FALSE(root.find("correct")->boolean);
  EXPECT_EQ(root.find("attempted")->number, 2.0);
  EXPECT_EQ(root.find("failed")->number, 1.0);
  const auto* metrics = root.find("metrics");
  ASSERT_EQ(metrics->members.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& [name, m] = metrics->members[i];
    EXPECT_EQ(name, outcome.metrics[i].name);
    const double value = m.find("value")->number;
    EXPECT_EQ(std::memcmp(&value, &outcome.metrics[i].value, sizeof value), 0)
        << name << " lost digits";
    EXPECT_EQ(m.find("unit")->text, outcome.metrics[i].unit);
  }
}

TEST(Tracer, RecordsSpansOnlyWhenTracing) {
  { Scope untraced(nullptr, "never"); EXPECT_EQ(untraced.id(), 0u); }
  Tracer tracer;
  {
    Scope outer(&tracer, "outer", 0, 7);
    Scope inner(&tracer, "inner", outer.id(), 7);
    EXPECT_NE(inner.id(), outer.id());
  }
  EXPECT_EQ(tracer.durations_us("outer").size(), 1u);
  EXPECT_EQ(tracer.durations_us("inner").size(), 1u);
  EXPECT_GE(tracer.durations_us("outer")[0], tracer.durations_us("inner")[0]);
  std::ostringstream chrome;
  tracer.write_chrome(chrome);
  wave::serve::JsonValue root;
  std::string error;
  ASSERT_TRUE(wave::serve::parse_json(chrome.str(), root, error)) << error;
  const auto* events = root.find("traceEvents");
  ASSERT_EQ(events->items.size(), 2u);
  // The inner span closes first and names the outer one as its parent.
  const auto* args = events->items[0].find("args");
  EXPECT_EQ(args->find("parent")->number,
            events->items[1].find("args")->find("id")->number);
  EXPECT_EQ(args->find("request")->number, 7.0);
}

}  // namespace
}  // namespace perfbench
