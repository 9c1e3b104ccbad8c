// Byte-identical pinned record fixtures for the hot-path optimizations.
//
// tests/data/*.csv were generated with the PRE-optimization implementation
// (std::function events, shared_ptr messages, unordered_map channels, a
// binary heap of 56-byte events) on the reference sweeps of
// runner/reference_grids.h. The pooled implementation — slab-recycled
// tasks under a binary heap of 16-byte packed keys — must reproduce them
// to the byte: every simulated timestamp, contention counter and event
// count — not approximately, exactly. This is the
// determinism contract of docs/ARCHITECTURE.md applied across
// implementations, and it is what lets perf work land without re-blessing
// any validation number.
//
// If this test fails after an intentional semantic change (a new metric, a
// protocol fix), regenerate the fixtures by running the sweeps through
// runner::write_csv and committing the new files — with the change called
// out in review, never silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/reference_grids.h"
#include "runner/runner.h"

namespace wo = wave::obs;
namespace wr = wave::runner;

namespace {

// Shared read-only context; model_compare_grid resolves machines and
// backends against its catalogs.
const wave::Context kCtx;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string records_csv(wr::SweepGrid grid, int sim_threads = 0,
                        wo::MetricsRegistry* metrics = nullptr,
                        wo::SpanCapture* trace = nullptr) {
  grid.base().sim_threads = sim_threads;
  grid.base().metrics = metrics;
  grid.base().trace = trace;
  // Thread count deliberately != 1: the fixture also guards the batch
  // runner's thread- and chunk-invariance on real sweeps.
  const auto records = wr::BatchRunner(kCtx, wr::BatchRunner::Options(0)).run(grid);
  std::ostringstream os;
  wr::write_csv(os, records);
  return os.str();
}

}  // namespace

TEST(PinnedRecords, RunnerScalingGridMatchesPreOptimizationFixture) {
  EXPECT_EQ(records_csv(wr::runner_scaling_grid(false)),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/runner_scaling_records.csv"));
}

TEST(PinnedRecords, ModelCompareGridMatchesPreOptimizationFixture) {
  EXPECT_EQ(records_csv(wr::model_compare_grid(kCtx, WAVE_MACHINES_DIR)),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/model_compare_records.csv"));
}

// The same sweep replayed through the parallel LP engine, pinned against
// its own fixture. runner_scaling_records_parallel.csv was generated at 4
// sim threads and verified byte-identical when regenerated at 2 — the LP
// engine's results depend on neither worker count nor LP grouping (its
// envelope order (order, src rank, emission seq) is a canonical total
// order over cross-node effects). It intentionally differs from the
// serial fixture in a handful of rows: Sweep3D's anti-diagonal symmetry
// posts both incoming messages of an interior rank at the same instant,
// and the serial engine resolves such exact-time resource ties by its
// incidental global interleaving — an order that depends on unbounded
// scheduling history and that no partitioned execution can reproduce.
// The structural test below bounds that divergence: it may move simulated
// waiting-time attribution, never the event/message streams themselves.
TEST(PinnedRecords, RunnerScalingGridParallelEngineMatchesFixture) {
  EXPECT_EQ(records_csv(wr::runner_scaling_grid(false), 4),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/runner_scaling_records_parallel.csv"));
}

// Serial fixture vs parallel fixture, column by column: every label,
// every analytic-model metric and the simulated event/message counts must
// agree on every row. Only the five timing/contention columns
// (sim_iter_us, sim_makespan_us, sim_bus_wait_us, sim_nic_wait_us,
// sim_mpi_busy_us) are allowed to differ — the tie-order freedom above is
// confined to *when* contended resources were granted, never to *what*
// the simulation did.
TEST(PinnedRecords, ParallelFixtureDivergesFromSerialOnlyInTieTiming) {
  const std::string serial = slurp(std::string(WAVE_TESTDATA_DIR) +
                                   "/runner_scaling_records.csv");
  const std::string parallel = slurp(std::string(WAVE_TESTDATA_DIR) +
                                     "/runner_scaling_records_parallel.csv");
  std::istringstream serial_in(serial);
  std::istringstream parallel_in(parallel);
  std::string header;
  std::getline(serial_in, header);
  ASSERT_EQ(header,
            "index,application,machine,P,Htile,engine,model_iter_us,"
            "model_iter_comm_us,model_timestep_us,model_timestep_comm_us,"
            "model_fill_us,model_fill_comm_us,sim_iter_us,sim_makespan_us,"
            "sim_events,sim_messages,sim_bus_wait_us,sim_nic_wait_us,"
            "sim_mpi_busy_us");
  std::string parallel_header;
  std::getline(parallel_in, parallel_header);
  ASSERT_EQ(header, parallel_header);

  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::istringstream cs(line);
    std::string cell;
    while (std::getline(cs, cell, ',')) cells.push_back(cell);
    // A line ending in ',' has one more (empty) field than getline yields.
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    return cells;
  };
  // Column indices of the tie-timing columns exempted from equality.
  const std::vector<std::size_t> timing = {12, 13, 16, 17, 18};

  std::string srow;
  std::string prow;
  int rows = 0;
  while (std::getline(serial_in, srow)) {
    ASSERT_TRUE(std::getline(parallel_in, prow)) << "row " << rows;
    const auto scells = split(srow);
    const auto pcells = split(prow);
    ASSERT_EQ(scells.size(), 19u) << srow;
    ASSERT_EQ(pcells.size(), scells.size()) << prow;
    for (std::size_t c = 0; c < scells.size(); ++c) {
      if (std::find(timing.begin(), timing.end(), c) != timing.end())
        continue;
      EXPECT_EQ(scells[c], pcells[c]) << "row " << rows << " column " << c;
    }
    ++rows;
  }
  EXPECT_FALSE(std::getline(parallel_in, prow));
  EXPECT_EQ(rows, 64);
}

// The observability contract's strongest form: the pinned sweeps replayed
// with a metrics registry AND a span capture attached must stay
// byte-identical to the uninstrumented fixtures — on the serial engine
// and on the LP-partitioned engine. Instruments observe the run (the
// registry ends up non-empty, the capture binds to the first simulation
// point) without perturbing a single simulated timestamp.
TEST(PinnedRecords, InstrumentedSerialReplayIsByteIdentical) {
  wo::MetricsRegistry metrics;
  wo::SpanCapture trace;
  EXPECT_EQ(records_csv(wr::runner_scaling_grid(false), 0, &metrics, &trace),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/runner_scaling_records.csv"));
  EXPECT_FALSE(metrics.snapshot().empty());
  EXPECT_TRUE(trace.claimed());
  EXPECT_GT(trace.total_spans(), 0u);
}

TEST(PinnedRecords, InstrumentedParallelReplayIsByteIdentical) {
  wo::MetricsRegistry metrics;
  wo::SpanCapture trace;
  EXPECT_EQ(records_csv(wr::runner_scaling_grid(false), 4, &metrics, &trace),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/runner_scaling_records_parallel.csv"));
  EXPECT_FALSE(metrics.snapshot().empty());
  EXPECT_TRUE(trace.claimed());
}

// The analytic grid at 4 sim threads: model_compare_grid evaluates
// Engine::Model only, so sim_threads must be inert — byte-identical to
// the serial fixture. This guards the knob's reach: it configures the DES
// engine and nothing else.
TEST(PinnedRecords, ModelCompareGridIgnoresSimThreads) {
  EXPECT_EQ(records_csv(wr::model_compare_grid(kCtx, WAVE_MACHINES_DIR), 4),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/model_compare_records.csv"));
}
