// The Study allocation gate: heap allocations per row of the what-if
// Study, counted by this binary's global operator new (counting_new.h).
// A columnar StudyResult stores its names once and its rows as level ids
// and doubles, and the batched points build no scenario, so a Study's
// allocations do not grow with its rows; destroying the result frees a
// block per name and column, not per row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "counting_new.h"
#include "wave/context.h"
#include "wave/study.h"

namespace {

using wave::testing::g_allocs;
using wave::testing::g_frees;

// perfbench's what-if grid: 64 .. 65,536 ranks, eight levels per octave.
std::vector<int> geometric_axis(int lo, int hi, int per_octave) {
  std::vector<int> out;
  for (int k = 0;; ++k) {
    const int p = static_cast<int>(
        std::lround(lo * std::exp2(static_cast<double>(k) / per_octave)));
    if (p > hi) break;
    if (out.empty() || out.back() != p) out.push_back(p);
  }
  return out;
}

constexpr double kMaxAllocsPerRow = 1.0;

TEST(StudyHeap, WhatIfStudyAllocatesUnderOneBlockPerRow) {
  wave::Context ctx;
  ASSERT_TRUE(ctx.add_machine_dir(WAVE_MACHINES_DIR).is_ok());
  const std::vector<std::string> machines = {
      "xt4-dual", "xt4-single", "sp2", "fatnode-loggps",
      "quadcore-shared-bus"};
  const std::vector<std::string> comms = {"loggp", "loggps", "contention"};
  const std::vector<int> procs = geometric_axis(64, 65536, 8);
  ASSERT_EQ(procs.size(), 81u);

  for (const int threads : {1, 4}) {
    const wave::Study study = ctx.study()
                                  .app("sweep3d-20m")
                                  .machines(machines)
                                  .comm_models(comms)
                                  .processors(procs)
                                  .threads(threads);
    std::optional<wave::Expected<wave::StudyResult>> result;
    const std::size_t before = g_allocs.load();
    result.emplace(study.run());
    const std::size_t allocs = g_allocs.load() - before;
    ASSERT_TRUE(result->ok()) << result->status().to_string();
    const std::size_t rows = result->value().rows.size();
    ASSERT_EQ(rows, 1215u);
    const double per_row = static_cast<double>(allocs) / rows;

    // Names and columns: 3 axes and 6 metrics, a block or two each.
    const std::size_t frees_before = g_frees.load();
    result.reset();
    const std::size_t frees = g_frees.load() - frees_before;
    std::printf("threads=%d: %.3f heap allocations per row (gate %.0f); "
                "destroying the result freed %zu blocks\n",
                threads, per_row, kMaxAllocsPerRow, frees);
    EXPECT_LE(per_row, kMaxAllocsPerRow) << "threads=" << threads;
    EXPECT_LE(frees, 2 * (3 + 6) + 8u) << "threads=" << threads;
  }
}

}  // namespace
