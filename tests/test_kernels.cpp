// Tests for the real computational kernels used to measure Wg.
#include <gtest/gtest.h>

#include "common/contracts.h"
#include "kernels/transport.h"

namespace wk = wave::kernels;

TEST(Quadrature, NormalizedDirectionsAndWeights) {
  for (int count : {1, 6, 10, 24}) {
    const auto quad = wk::make_quadrature(count);
    ASSERT_EQ(static_cast<int>(quad.size()), count);
    double wsum = 0.0;
    for (const auto& o : quad) {
      EXPECT_GT(o.mu, 0.0);
      EXPECT_GT(o.eta, 0.0);
      EXPECT_GT(o.xi, 0.0);
      EXPECT_NEAR(o.mu * o.mu + o.eta * o.eta + o.xi * o.xi, 1.0, 1e-12);
      wsum += o.weight;
    }
    EXPECT_NEAR(wsum, 1.0, 1e-12);
  }
}

TEST(TransportTile, UpdateCountAndPositivity) {
  wk::TransportTile tile(4, 4, 2, wk::make_quadrature(6));
  const auto updates = tile.sweep_vacuum();
  EXPECT_EQ(updates, 4u * 4u * 2u * 6u);
  EXPECT_GT(tile.scalar_flux(), 0.0);  // positive source -> positive flux
}

TEST(TransportTile, FluxMonotoneInSource) {
  const auto quad = wk::make_quadrature(4);
  wk::TransportTile weak(4, 4, 4, quad, 1.0, 1.0);
  wk::TransportTile strong(4, 4, 4, quad, 1.0, 2.0);
  weak.sweep_vacuum();
  strong.sweep_vacuum();
  EXPECT_GT(strong.scalar_flux(), weak.scalar_flux());
  // Linearity of the transport sweep in the source: double source, double
  // flux (vacuum inflow).
  EXPECT_NEAR(strong.scalar_flux(), 2.0 * weak.scalar_flux(), 1e-9);
}

TEST(TransportTile, FluxDecreasesWithAbsorption) {
  const auto quad = wk::make_quadrature(4);
  wk::TransportTile thin(4, 4, 4, quad, 0.5, 1.0);
  wk::TransportTile thick(4, 4, 4, quad, 4.0, 1.0);
  thin.sweep_vacuum();
  thick.sweep_vacuum();
  EXPECT_GT(thin.scalar_flux(), thick.scalar_flux());
}

TEST(TransportTile, InflowPropagatesDownstream) {
  const auto quad = wk::make_quadrature(2);
  wk::TransportTile tile(3, 3, 1, quad, 1.0, 0.0);  // no source
  std::vector<double> west(tile.west_face_size(), 1.0);
  std::vector<double> north(tile.north_face_size(), 1.0);
  std::vector<double> east(tile.west_face_size(), 0.0);
  std::vector<double> south(tile.north_face_size(), 0.0);
  tile.sweep(west, north, east, south);
  // With zero source the only flux comes from the inflow; outflow must be
  // positive but attenuated below the inflow level.
  for (double v : east) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(TransportTile, VacuumDeepCellsApproachFixedPoint) {
  // Far from the inflow faces, the flux approaches the infinite-medium
  // fixed point psi* = q / sigma_t of the diamond-difference update.
  const auto quad = wk::make_quadrature(1);
  const double sigma = 2.0, q = 3.0;
  wk::TransportTile tile(24, 24, 8, quad, sigma, q);
  tile.sweep_vacuum();
  // Re-sweep feeding the previous east/south outflow back in as inflow to
  // emulate an interior tile: the scalar flux per cell tends to q/sigma.
  std::vector<double> west(tile.west_face_size(), q / sigma);
  std::vector<double> north(tile.north_face_size(), q / sigma);
  std::vector<double> east(tile.west_face_size(), 0.0);
  std::vector<double> south(tile.north_face_size(), 0.0);
  tile.sweep(west, north, east, south);
  const double cells = 24.0 * 24.0 * 8.0;
  EXPECT_NEAR(tile.scalar_flux() / cells, q / sigma, 0.05 * q / sigma);
}

TEST(TransportTile, RejectsBadConstruction) {
  EXPECT_THROW(wk::TransportTile(0, 1, 1, wk::make_quadrature(1)),
               wave::common::contract_error);
  EXPECT_THROW(wk::TransportTile(1, 1, 1, {}),
               wave::common::contract_error);
  EXPECT_THROW(wk::TransportTile(1, 1, 1, wk::make_quadrature(1), 0.0),
               wave::common::contract_error);
}

// The scaling-with-angles check compares two wall-clock measurements, so it
// lives in the RUN_SERIAL timing binary (tests/serial/test_wg_timing.cpp).
TEST(MeasureWg, Positive) {
  EXPECT_GT(wk::measure_wg_transport(6, 1000, 2), 0.0);
}
