// Byte-identical pinned record fixtures for the hot-path optimizations.
//
// tests/data/*.csv were generated with the PRE-optimization implementation
// (std::function events, shared_ptr messages, unordered_map channels, a
// binary heap of 56-byte events) on the reference sweeps of
// runner/reference_grids.h. The pooled implementation — slab-recycled
// tasks under a radix heap of 16-byte packed keys — must reproduce them
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
//
// One such re-pin: the model columns of the single-core machines (XT4
// single, sp2) come from the closed-form r2 fill
// (kernels::fill_closed_form), which sums each path in a different order
// from the recurrence. Those columns moved by at most 8 ulp (1.1e-15
// relative); every simulated column and every multi-core row is unchanged.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

std::string records_csv(wr::SweepGrid grid,
                        wo::MetricsRegistry* metrics = nullptr,
                        wo::SpanCapture* trace = nullptr) {
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

// The observability contract's strongest form: the pinned sweeps replayed
// with a metrics registry AND a span capture attached must stay
// byte-identical to the uninstrumented fixtures. Instruments observe the
// run (the registry ends up non-empty, the capture binds to the first
// simulation point) without perturbing a single simulated timestamp.
TEST(PinnedRecords, InstrumentedSerialReplayIsByteIdentical) {
  wo::MetricsRegistry metrics;
  wo::SpanCapture trace;
  EXPECT_EQ(records_csv(wr::runner_scaling_grid(false), &metrics, &trace),
            slurp(std::string(WAVE_TESTDATA_DIR) +
                  "/runner_scaling_records.csv"));
  EXPECT_FALSE(metrics.snapshot().empty());
  EXPECT_TRUE(trace.claimed());
  EXPECT_GT(trace.total_spans(), 0u);
}
