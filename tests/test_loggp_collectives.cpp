// Tests for the all-reduce model (eq. 9).
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"
#include "loggp/backends.h"
#include "loggp/collectives.h"

namespace wl = wave::loggp;

namespace {
const wl::LogGpModel kModel(wl::xt4());
}

TEST(Allreduce, SingleCoreReducesToLogP) {
  // §3.3: "in the special case of C = 1, the equation reduces to
  // log2(P) TotalComm".
  for (int p : {2, 8, 64, 1024}) {
    const double expected =
        std::log2(static_cast<double>(p)) *
        kModel.total(8, wl::Placement::OffNode);
    EXPECT_NEAR(wl::allreduce_time(kModel, p, 1, 8), expected, 1e-9)
        << "P=" << p;
  }
}

TEST(Allreduce, DualCoreSplitsStages) {
  // C = 2: one on-chip stage, log2(P)-1 off-node stages, each doubled.
  const int p = 64;
  const double expected =
      (6.0 - 1.0) * 2.0 * kModel.total(8, wl::Placement::OffNode) +
      1.0 * 2.0 * kModel.total(8, wl::Placement::OnChip);
  EXPECT_NEAR(wl::allreduce_time(kModel, p, 2, 8), expected, 1e-9);
}

TEST(Allreduce, MonotoneInProcessors) {
  double prev = 0.0;
  for (int p = 2; p <= 65536; p *= 2) {
    const double t = wl::allreduce_time(kModel, p, 2, 8);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Allreduce, MonotoneInPayload) {
  EXPECT_LT(wl::allreduce_time(kModel, 256, 2, 8),
            wl::allreduce_time(kModel, 256, 2, 4096));
}

TEST(Allreduce, SingleRankIsFree) {
  EXPECT_DOUBLE_EQ(wl::allreduce_time(kModel, 1, 1, 8), 0.0);
}

TEST(Allreduce, NonPowerOfTwoUsesCeilLog) {
  // 1000 ranks need 10 exchange rounds, same as 1024.
  EXPECT_DOUBLE_EQ(wl::allreduce_time(kModel, 1000, 1, 8),
                   wl::allreduce_time(kModel, 1024, 1, 8));
  EXPECT_GT(wl::allreduce_time(kModel, 1025, 1, 8),
            wl::allreduce_time(kModel, 1024, 1, 8));
}

TEST(Allreduce, RejectsBadShapes) {
  EXPECT_THROW(wl::allreduce_time(kModel, 0, 1, 8),
               wave::common::contract_error);
  EXPECT_THROW(wl::allreduce_time(kModel, 4, 8, 8),
               wave::common::contract_error);  // C > P
  EXPECT_THROW(wl::allreduce_time(kModel, 64, 3, 8),
               wave::common::contract_error);  // C not a power of two
  EXPECT_THROW(wl::allreduce_time(kModel, 64, 2, -1),
               wave::common::contract_error);
}

TEST(Barrier, IsZeroPayloadAllreduce) {
  // A barrier is eq. 9 with zero payload: log2(128) - log2(2) = 6 off-node
  // and 1 on-chip stage, each costing C = 2 zero-byte message times.
  const double expected = 6.0 * 2.0 * kModel.total(0, wl::Placement::OffNode) +
                          1.0 * 2.0 * kModel.total(0, wl::Placement::OnChip);
  EXPECT_NEAR(wl::allreduce_time(kModel, 128, 2, 0), expected, 1e-9);
}

// Parameterized sweep: the all-reduce model grows by exactly one off-node
// stage cost per doubling of node count (fixed C), the structural property
// behind Fig 6's logarithmic synchronization overhead.
class AllreduceScaling : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceScaling, DoublingAddsOneOffNodeStage) {
  const int c = GetParam();
  const double per_stage =
      c * kModel.total(8, wl::Placement::OffNode);
  for (int p = 4 * c; p <= 32768; p *= 2) {
    const double delta = wl::allreduce_time(kModel, 2 * p, c, 8) -
                         wl::allreduce_time(kModel, p, c, 8);
    EXPECT_NEAR(delta, per_stage, 1e-9) << "P=" << p << " C=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(CoresPerNode, AllreduceScaling,
                         ::testing::Values(1, 2, 4, 8));
