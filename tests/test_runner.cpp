// Tests for the scenario-runner subsystem: declarative sweep enumeration,
// batch execution determinism across thread counts, and result sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/benchmarks.h"
#include "runner/runner.h"
#include "serve/json.h"

namespace wr = wave::runner;
namespace wc = wave::core;

namespace {

// One shared read-only context for the whole file: the runner resolves
// machines, workloads, and comm models against its catalogs.
const wave::Context kCtx;

/// A small Sweep3D problem so DES points cost milliseconds.
wc::AppParams tiny_sweep3d() {
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 32;
  return wc::benchmarks::sweep3d(cfg);
}

/// The mixed analytic+DES sweep the determinism contract is stated over.
wr::SweepGrid mixed_grid() {
  wc::benchmarks::ChimaeraConfig chim;
  chim.nx = chim.ny = chim.nz = 32;
  wr::SweepGrid grid;
  grid.apps({{"sweep3d", tiny_sweep3d()},
             {"chimaera", wc::benchmarks::chimaera(chim)}});
  grid.machines({{"single", wc::MachineConfig::xt4_single_core()},
                 {"dual", wc::MachineConfig::xt4_dual_core()}});
  grid.processors({4, 16});
  grid.engines({wr::Engine::Model, wr::Engine::Simulation});
  return grid;
}

/// 256 analytic points: enough for a chunk > 1 on up to 7 threads.
wr::SweepGrid analytic_grid() {
  wr::SweepGrid grid;
  grid.base().app = tiny_sweep3d();
  std::vector<double> htiles;
  for (int h = 1; h <= 32; ++h) htiles.push_back(h);
  grid.values("Htile", htiles,
              [](wr::Scenario& s, double h) { s.app.htile = h; });
  grid.processors({4, 16, 36, 64, 100, 144, 196, 256});
  return grid;
}

}  // namespace

TEST(SweepGrid, EnumeratesCartesianProductInDeclarationOrder) {
  wr::SweepGrid grid;
  grid.values("a", {1, 2});
  grid.values("b", {10, 20, 30});
  const auto points = grid.points();
  ASSERT_EQ(points.size(), 6u);
  // First axis varies slowest; labels follow axis-declaration order.
  using Labels = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(points[0].labels, (Labels{{"a", "1"}, {"b", "10"}}));
  EXPECT_EQ(points[1].labels, (Labels{{"a", "1"}, {"b", "20"}}));
  EXPECT_EQ(points[3].labels, (Labels{{"a", "2"}, {"b", "10"}}));
  EXPECT_EQ(points[5].labels, (Labels{{"a", "2"}, {"b", "30"}}));
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].param("b"),
              static_cast<double>(10 * (1 + i % 3)));
  }
}

TEST(SweepGrid, LaterAxesSeeEarlierAxisValues) {
  wr::SweepGrid grid;
  grid.values("nodes", {2, 4});
  grid.axis("shape", {{"x2", [](wr::Scenario& s) {
                         s.set_processors(2 *
                                          static_cast<int>(s.param("nodes")));
                       }}});
  const auto points = grid.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].processors(), 4);
  EXPECT_EQ(points[1].processors(), 8);
}

TEST(SweepGrid, FilterKeepsIndicesAndSeedsStable) {
  wr::SweepGrid all;
  all.values("x", {1, 2, 3, 4});
  wr::SweepGrid filtered;
  filtered.values("x", {1, 2, 3, 4});
  filtered.filter(
      [](const wr::Scenario& s) { return s.param("x") > 2.0; });

  const auto a = all.points();
  const auto f = filtered.points();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].index, a[2].index);
  EXPECT_EQ(f[0].seed, a[2].seed);
  EXPECT_EQ(f[1].seed, a[3].seed);
}

TEST(SweepGrid, SeedsAvalancheAcrossConsecutiveIndices) {
  const std::uint64_t a = wr::derive_seed(2008, 0);
  const std::uint64_t b = wr::derive_seed(2008, 1);
  EXPECT_NE(a, b);
  // Different base seeds give different streams.
  EXPECT_NE(wr::derive_seed(7, 0), a);
}

TEST(Scenario, MissingParamThrows) {
  wr::Scenario s;
  EXPECT_THROW(s.param("nope"), wave::common::contract_error);
}

TEST(BatchRunner, RecordsComeBackInPointOrder) {
  wr::SweepGrid grid;
  grid.values("x", {5, 6, 7, 8, 9});
  const auto records =
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(4))
          .run(grid, [](const wr::Scenario& s) {
            return wr::Metrics{{"twice", 2.0 * s.param("x")}};
          });
  ASSERT_EQ(records.size(), 5u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_DOUBLE_EQ(records[i].metric("twice"), 2.0 * (5.0 + i));
}

TEST(BatchRunner, MixedSweepIsByteIdenticalAtAnyThreadCount) {
  const auto points = mixed_grid().points();
  ASSERT_GE(points.size(), 16u);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::string serial =
      wr::to_csv(wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(points));
  const std::string two =
      wr::to_csv(wr::BatchRunner(kCtx, wr::BatchRunner::Options(2)).run(points));
  const std::string many = wr::to_csv(
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(std::max(hw, 1))).run(points));

  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, many);
  // And the sweep genuinely mixed the two engines.
  bool saw_model = false, saw_sim = false;
  for (const auto& p : points) {
    saw_model |= p.engine == wr::Engine::Model;
    saw_sim |= p.engine == wr::Engine::Simulation;
  }
  EXPECT_TRUE(saw_model);
  EXPECT_TRUE(saw_sim);
}

TEST(BatchRunner, PerPointSeedsAreIndependentOfSchedule) {
  // A point function that *uses* its seed: the record keeps the first
  // draw of the point's RNG, which must depend only on the point.
  wr::SweepGrid grid;
  grid.values("x", {1, 2, 3, 4, 5, 6, 7, 8});
  auto fn = [](const wr::Scenario& s) {
    wave::common::Rng rng(s.seed);
    return wr::Metrics{{"draw", rng.uniform(0.0, 1.0)}};
  };
  const auto a = wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(grid, fn);
  const auto b = wr::BatchRunner(kCtx, wr::BatchRunner::Options(4)).run(grid, fn);
  EXPECT_EQ(wr::to_csv(a), wr::to_csv(b));
}

TEST(BatchRunner, ExceptionsPropagateOutOfTheBatch) {
  wr::SweepGrid grid;
  grid.values("x", {1, 2, 3, 4});
  const auto boom = [](const wr::Scenario& s) -> wr::Metrics {
    if (s.param("x") == 3.0) throw std::runtime_error("bad point");
    return {{"ok", 1.0}};
  };
  EXPECT_THROW(
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(2)).run(grid, boom),
      std::runtime_error);
  EXPECT_THROW(
      wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(grid, boom),
      std::runtime_error);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  wr::ThreadPool pool(4);
  pool.for_each_chunk(100, 1, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, AbandonsInFlightChunkAfterAnotherWorkerThrows) {
  // Two workers, one 1000-index chunk each. The worker that draws index 0
  // waits until the other worker is demonstrably mid-chunk, then throws.
  // Under the fail-fast contract the other worker must abandon the rest
  // of its chunk — far fewer than its 1000 indices execute.
  const wr::ThreadPool pool(2);
  std::atomic<bool> other_started{false};
  std::atomic<int> other_executed{0};
  EXPECT_THROW(
      pool.for_each_chunk(2000, 1000,
                          [&](std::size_t i) {
                            if (i == 0) {
                              while (!other_started.load())
                                std::this_thread::yield();
                              throw std::runtime_error("boom");
                            }
                            if (i >= 1000) {
                              other_started.store(true);
                              other_executed.fetch_add(1);
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(100));
                            }
                          }),
      std::runtime_error);
  EXPECT_GE(other_executed.load(), 1);
  EXPECT_LT(other_executed.load(), 1000);
}

TEST(Record, SetOverwritesAndMetricThrowsWhenAbsent) {
  wr::RunRecord r;
  r.set("a", 1.0);
  r.set("a", 2.0);
  EXPECT_DOUBLE_EQ(r.metric("a"), 2.0);
  EXPECT_FALSE(r.has("b"));
  EXPECT_THROW(r.metric("b"), wave::common::contract_error);
}

TEST(Sinks, CsvListsLabelsThenMetricsAndRoundTripsDoubles) {
  wr::RunRecord r;
  r.index = 3;
  r.labels = {{"P", "16"}};
  r.metrics = {{"v", 0.1}};
  std::ostringstream os;
  wr::write_csv(os, {r});
  EXPECT_EQ(os.str(),
            "index,P,v\n3,16,0.10000000000000001\n");
}

TEST(Sinks, CsvQuotesFieldsContainingDelimiters) {
  wr::RunRecord r;
  r.labels = {{"application", "Sweep3D 1000^3, 30 groups"},
              {"note", "say \"hi\""}};
  r.metrics = {{"v", 1.0}};
  std::ostringstream os;
  wr::write_csv(os, {r});
  EXPECT_EQ(os.str(),
            "index,application,note,v\n"
            "0,\"Sweep3D 1000^3, 30 groups\",\"say \"\"hi\"\"\",1\n");
}

TEST(Sinks, MissingMetricsRenderAsDashInTablesAndEmptyInCsv) {
  wr::RunRecord a;
  a.labels = {{"P", "1"}};
  a.metrics = {{"v", 1.0}, {"w", 2.0}};
  wr::RunRecord b;
  b.labels = {{"P", "2"}};
  b.metrics = {{"v", 3.0}};  // no "w": e.g. sim point beyond the cap

  const auto table = wr::make_table(
      {a, b}, {wr::Column::label("P"), wr::Column::metric("w", "w", 1)});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "P,w\n1,2.0\n2,-\n");

  std::ostringstream csv;
  wr::write_csv(csv, {a, b});
  EXPECT_NE(csv.str().find("\n0,2,3,\n"), std::string::npos);
}

TEST(Sinks, PivotTableArrangesRowAndColumnAxes)
{
  std::vector<wr::RunRecord> records;
  for (const char* h : {"1", "2"})
    for (const char* cfg : {"a", "b"}) {
      wr::RunRecord r;
      r.labels = {{"Htile", h}, {"config", cfg}};
      r.metrics = {{"t", (h[0] - '0') * 10.0 + (cfg[0] - 'a')}};
      records.push_back(r);
    }
  const auto table = wr::pivot_table(records, "Htile", "config", "t", 0);
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "Htile,a,b\n1,10,11\n2,20,21\n");
}

TEST(Sinks, JsonEscapesStringsAndEmitsAllMetrics) {
  wr::RunRecord r;
  r.labels = {{"name", "say \"hi\""}};
  r.metrics = {{"v", 1.5}};
  wr::RunRecord odd;  // a carriage return and a NaN: still valid JSON
  odd.index = 1;
  odd.labels = {{"line", "a\rb"}};
  odd.metrics = {{"nan", std::nan("")}, {"w", 2.0}};
  std::ostringstream os;
  wr::write_json(os, {r, odd});
  EXPECT_NE(os.str().find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(os.str().find("\"v\": 1.5"), std::string::npos);

  wave::serve::JsonValue root;
  std::string error;
  ASSERT_TRUE(wave::serve::parse_json(os.str(), root, error))
      << error << "\n" << os.str();
  ASSERT_TRUE(root.is_array());
  ASSERT_EQ(root.items.size(), 2u);
  EXPECT_EQ(root.items[0].find("labels")->find("name")->text, "say \"hi\"");
  const wave::serve::JsonValue& back = root.items[1];
  EXPECT_EQ(back.find("index")->number, 1.0);
  EXPECT_EQ(back.find("labels")->find("line")->text, "a\rb");
  EXPECT_TRUE(back.find("metrics")->find("nan")->is_null());
  EXPECT_EQ(back.find("metrics")->find("w")->number, 2.0);
}

#ifndef WAVE_MACHINES_DIR
#define WAVE_MACHINES_DIR "machines"
#endif

TEST(SweepGrid, CommModelAxisComposesWithMachineAxisInEitherOrder) {
  // The comm-model axis sets the *override*, so it survives a machine
  // axis declared after it — declaration order must not matter.
  auto labels_and_models = [](wr::SweepGrid& grid) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const wr::Scenario& s : grid.points()) {
      std::map<std::string, std::string> label(s.labels.begin(),
                                               s.labels.end());
      out.emplace_back(label["machine"] + "/" + label["comm"],
                       s.effective_machine().comm_model);
    }
    return out;
  };

  wr::SweepGrid comm_first;
  comm_first.comm_models(kCtx, {"loggp", "contention"});
  comm_first.machines({{"single", wc::MachineConfig::xt4_single_core()},
                       {"dual", wc::MachineConfig::xt4_dual_core()}});
  wr::SweepGrid machine_first;
  machine_first.machines({{"single", wc::MachineConfig::xt4_single_core()},
                          {"dual", wc::MachineConfig::xt4_dual_core()}});
  machine_first.comm_models(kCtx, {"loggp", "contention"});

  for (const auto& [point, model] : labels_and_models(comm_first))
    EXPECT_EQ(model, point.substr(point.find('/') + 1)) << point;
  for (const auto& [point, model] : labels_and_models(machine_first))
    EXPECT_EQ(model, point.substr(point.find('/') + 1)) << point;
}

TEST(SweepGrid, CommModelAxisRejectsUnknownBackends) {
  wr::SweepGrid grid;
  EXPECT_THROW(grid.comm_models(kCtx, {"loggp", "telepathy"}),
               wave::common::contract_error);
}

TEST(SweepGrid, MachineFilesAxisLoadsAndLabelsByConfigName) {
  const std::string dir = WAVE_MACHINES_DIR;
  wr::SweepGrid grid;
  grid.machine_files(kCtx, {dir + "/xt4-dual.cfg", dir + "/sp2.cfg"});
  const auto points = grid.points();
  ASSERT_EQ(points.size(), 2u);
  using Label = std::pair<std::string, std::string>;
  EXPECT_EQ(points[0].labels, std::vector{Label("machine", "xt4-dual")});
  EXPECT_EQ(points[1].labels, std::vector{Label("machine", "sp2")});
  EXPECT_TRUE(points[1].machine.synchronization_terms);
  EXPECT_THROW(grid.machine_files(kCtx, {dir + "/missing.cfg"}), wc::ConfigError);
}

TEST(Scenario, EffectiveMachineAppliesOverrideOnly) {
  wr::Scenario s;
  s.machine = wc::MachineConfig::xt4_dual_core();
  EXPECT_EQ(s.effective_machine(), s.machine);
  s.comm_model = "loggps";
  const wc::MachineConfig eff = s.effective_machine();
  EXPECT_EQ(eff.comm_model, "loggps");
  EXPECT_EQ(eff.loggp, s.machine.loggp);
  EXPECT_EQ(s.machine.comm_model, "loggp");  // the stored machine is intact
}

TEST(BatchRunner, MachineAndCommAxesStayDeterministicAcrossThreads) {
  const std::string dir = WAVE_MACHINES_DIR;
  wr::SweepGrid grid;
  grid.base().app = tiny_sweep3d();
  grid.machine_files(
      kCtx, {dir + "/xt4-dual.cfg", dir + "/quadcore-shared-bus.cfg"});
  grid.comm_models(kCtx, {"loggp", "loggps", "contention"});
  grid.processors({4, 16});
  const auto points = grid.points();
  const auto one = wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(points);
  const auto many = wr::BatchRunner(kCtx, wr::BatchRunner::Options(8)).run(points);
  EXPECT_EQ(wr::to_csv(one), wr::to_csv(many));
}

namespace {

/// The scheduler's chunk for a plan of `points` as scalar units.
std::size_t chunk_of(const wr::BatchRunner& batch,
                     const std::vector<wr::Scenario>& points) {
  const bool simulates =
      std::any_of(points.begin(), points.end(), [](const wr::Scenario& s) {
        return s.engine == wr::Engine::Simulation;
      });
  return batch.chunk_for(points.size(), simulates);
}

}  // namespace

TEST(BatchRunner, ChunkedSchedulingKeepsRecordsByteIdentical) {
  // Chunked dispatch is a scheduling optimization only: the serialized
  // record set must not change by a byte at any thread count, on both
  // sides of the chunk rule — a sweep with DES points (chunk 1) and a
  // pure-analytic one (chunk > 1) — through both run() overloads.
  const auto scalar = [](const wr::Scenario& s) {
    return wr::evaluate_scenario(kCtx, s);
  };
  for (const auto& points : {mixed_grid().points(), analytic_grid().points()}) {
    const std::string expected = wr::to_csv(
        wr::BatchRunner(kCtx, wr::BatchRunner::Options(1)).run(points));
    for (int threads : {1, 3, 8}) {
      const wr::BatchRunner batch(kCtx, wr::BatchRunner::Options(threads));
      EXPECT_EQ(wr::to_csv(batch.run(points)), expected)
          << "threads=" << threads << " chunk=" << chunk_of(batch, points);
      EXPECT_EQ(wr::to_csv(batch.run(points, scalar)), expected)
          << "threads=" << threads << " chunk=" << chunk_of(batch, points);
    }
  }
}

TEST(BatchRunner, AutoChunkIsOneForSweepsContainingDesPoints) {
  const wr::BatchRunner batch{kCtx, wr::BatchRunner::Options(4)};
  EXPECT_EQ(chunk_of(batch, mixed_grid().points()), 1u);

  // A pure-analytic sweep gets a real chunk once it has enough points.
  const std::size_t chunk = chunk_of(batch, analytic_grid().points());
  EXPECT_GT(chunk, 1u);
  EXPECT_LE(chunk, 4096u);
}

TEST(ThreadPool, ChunkedDispatchCoversEveryIndexExactlyOnce) {
  const wr::ThreadPool pool(4);
  for (std::size_t count : {0u, 1u, 5u, 64u, 1000u}) {
    for (std::size_t chunk : {1u, 3u, 16u, 2000u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.for_each_chunk(count, chunk,
                          [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " chunk=" << chunk
                                     << " i=" << i;
    }
  }
}
