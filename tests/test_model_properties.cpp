// Metamorphic properties of the analytic model: relations the LogGP
// equations imply between two evaluations, checked on seeded random inputs
// so they need no oracle.
//
// Inputs: random off-node parameters (L 0.05-20 us, o 0.5-20 us,
// G 1e-4-1e-2 us/B, sync 0-5 us), synchronization terms on or off, single-
// or dual-core XT4 nodes, the LU / Sweep3D / Chimaera presets with Wg
// scaled 0.2-3.2x, the loggp / loggps / contention backends, and P drawn
// log-uniformly from 4 to 16,384.
//
//   1. Monotonicity: scaling off.L, off.o, off.G or Wg up never makes a
//      time step faster.
//   2. Linearity in iterations: tripling iterations_per_timestep triples
//      the time step. Only the final multiply differs (3 * (k * x) against
//      (3k) * x), so the two agree to within a few ULP, not bit for bit.
//
// A failure names the draw; it is a model bug, not a reason to narrow the
// input domain.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "core/benchmarks.h"
#include "core/solver.h"
#include "loggp/registry.h"

namespace wc = wave::core;
namespace wb = wave::core::benchmarks;

namespace {

const wave::loggp::CommModelRegistry kReg;

constexpr int kDraws = 3000;

struct Draw {
  wc::AppParams app;
  wc::MachineConfig machine;
  int processors = 4;
  std::string label;
};

/// Uniform in [lo, hi), built from raw engine bits so the sequence is the
/// same under every standard library.
double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1p-53;
}

Draw make_draw(std::mt19937_64& rng) {
  Draw d;
  d.machine = rng() % 2 == 0 ? wc::MachineConfig::xt4_single_core()
                             : wc::MachineConfig::xt4_dual_core();
  d.machine.loggp.off.L = uniform(rng, 0.05, 20.0);
  d.machine.loggp.off.o = uniform(rng, 0.5, 20.0);
  d.machine.loggp.off.G = uniform(rng, 1e-4, 1e-2);
  d.machine.loggp.off.sync = uniform(rng, 0.0, 5.0);
  d.machine.synchronization_terms = rng() % 2 == 0;
  static const char* const kBackends[] = {"loggp", "loggps", "contention"};
  d.machine.comm_model = kBackends[rng() % 3];

  static const char* const kApps[] = {"lu", "sweep3d", "chimaera"};
  const int app = static_cast<int>(rng() % 3);
  d.app = app == 0 ? wb::lu() : app == 1 ? wb::sweep3d() : wb::chimaera();
  const double wg_scale = uniform(rng, 0.2, 3.2);
  d.app.wg *= wg_scale;

  d.processors = static_cast<int>(std::lround(std::exp2(uniform(rng, 2.0, 14.0))));

  std::ostringstream os;
  os << kApps[app] << " wg x" << wg_scale << " on " << d.machine.name << "/"
     << d.machine.comm_model << " L=" << d.machine.loggp.off.L
     << " o=" << d.machine.loggp.off.o << " G=" << d.machine.loggp.off.G
     << " sync=" << d.machine.loggp.off.sync << " terms="
     << d.machine.synchronization_terms << " P=" << d.processors;
  d.label = os.str();
  return d;
}

double timestep(const wc::AppParams& app, const wc::MachineConfig& machine,
                int processors) {
  return wc::Solver(app, machine, kReg).evaluate(processors).timestep();
}

/// Distance in units in the last place between two positive doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto x = std::bit_cast<std::uint64_t>(a);
  const auto y = std::bit_cast<std::uint64_t>(b);
  return x > y ? x - y : y - x;
}

}  // namespace

TEST(ModelProperties, TimestepIsMonotoneInLatencyOverheadGapAndWork) {
  std::mt19937_64 rng(0x5eed2008);
  int checks = 0;
  for (int i = 0; i < kDraws; ++i) {
    const Draw d = make_draw(rng);
    const double base = timestep(d.app, d.machine, d.processors);
    ASSERT_GT(base, 0.0) << d.label;
    const double k = uniform(rng, 1.0, 4.0);

    wc::MachineConfig m = d.machine;
    m.loggp.off.L *= k;
    EXPECT_GE(timestep(d.app, m, d.processors), base) << "L x" << k << ": "
                                                      << d.label;
    m = d.machine;
    m.loggp.off.o *= k;
    EXPECT_GE(timestep(d.app, m, d.processors), base) << "o x" << k << ": "
                                                      << d.label;
    m = d.machine;
    m.loggp.off.G *= k;
    EXPECT_GE(timestep(d.app, m, d.processors), base) << "G x" << k << ": "
                                                      << d.label;
    wc::AppParams app = d.app;
    app.wg *= k;
    EXPECT_GE(timestep(app, d.machine, d.processors), base)
        << "wg x" << k << ": " << d.label;
    checks += 4;
  }
  EXPECT_EQ(checks, 4 * kDraws);
}

TEST(ModelProperties, TriplingIterationsTriplesTheTimestep) {
  std::mt19937_64 rng(0x5eed2009);
  for (int i = 0; i < kDraws; ++i) {
    const Draw d = make_draw(rng);
    const double base = timestep(d.app, d.machine, d.processors);
    wc::AppParams tripled = d.app;
    tripled.iterations_per_timestep *= 3;
    const double three = timestep(tripled, d.machine, d.processors);
    EXPECT_LE(ulp_distance(three, 3.0 * base), 4u)
        << three << " vs 3 x " << base << ": " << d.label;
  }
}
