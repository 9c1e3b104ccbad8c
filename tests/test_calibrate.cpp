// Tests for LogGP parameter fitting (the §3 derivation of Table 2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "calibrate/fitting.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "core/machine.h"
#include "fuzz_util.h"
#include "loggp/registry.h"

namespace wcal = wave::calibrate;
namespace wl = wave::loggp;

namespace {
// Fits every parameter from simulated curves of `truth` over the default
// sizes, drawing noise for the off-node curve first, as
// table2_calibration does.
wl::MachineParams calibrate(const wl::MachineParams& truth,
                            wave::common::Rng* noise = nullptr,
                            double rel_noise = 0.0) {
  const auto sizes = wcal::default_sizes();
  const auto off = wcal::measure_curve(truth, false, sizes, noise, rel_noise);
  const auto on = wcal::measure_curve(truth, true, sizes, noise, rel_noise);
  return wcal::fit_machine(off, on, truth.eager_limit_bytes);
}
}  // namespace

TEST(Calibrate, NoiseFreeFitRecoversOffNodeExactly) {
  const auto truth = wl::xt4();
  const auto curve = wcal::measure_curve(truth, /*on_chip=*/false,
                                         wcal::default_sizes());
  wcal::FitQuality q;
  const auto fit = wcal::fit_offnode(curve, truth.eager_limit_bytes, &q);
  EXPECT_NEAR(fit.G, truth.off.G, 1e-9);
  EXPECT_NEAR(fit.L, truth.off.L, 1e-6);
  EXPECT_NEAR(fit.o, truth.off.o, 1e-6);
  EXPECT_GT(q.r_squared_small, 0.999999);
  EXPECT_GT(q.r_squared_large, 0.999999);
}

TEST(Calibrate, NoiseFreeFitRecoversOnChipExactly) {
  const auto truth = wl::xt4();
  const auto curve =
      wcal::measure_curve(truth, /*on_chip=*/true, wcal::default_sizes());
  const auto fit = wcal::fit_onchip(curve, truth.eager_limit_bytes);
  EXPECT_NEAR(fit.Gcopy, truth.on.Gcopy, 1e-9);
  EXPECT_NEAR(fit.Gdma, truth.on.Gdma, 1e-9);
  EXPECT_NEAR(fit.ocopy, truth.on.ocopy, 1e-6);
  EXPECT_NEAR(fit.o, truth.on.o, 1e-6);
}

TEST(Calibrate, FullMachineRoundTrip) {
  const auto truth = wl::xt4();
  const auto fitted = calibrate(truth);
  EXPECT_NEAR(fitted.off.G, truth.off.G, 1e-9);
  EXPECT_NEAR(fitted.off.L, truth.off.L, 1e-6);
  EXPECT_NEAR(fitted.off.o, truth.off.o, 1e-6);
  EXPECT_NEAR(fitted.on.Gdma, truth.on.Gdma, 1e-9);
}

TEST(Calibrate, NoisyFitStaysClose) {
  const auto truth = wl::xt4();
  wave::common::Rng rng(2026);
  const auto fitted = calibrate(truth, &rng, 0.01);
  // 1% multiplicative timer noise on ~10 µs measurements translates to
  // roughly 10% uncertainty in the fitted slopes and overheads; L is tiny
  // relative to the intercepts so its absolute error matters more than
  // its ratio.
  EXPECT_NEAR(fitted.off.G / truth.off.G, 1.0, 0.15);
  EXPECT_NEAR(fitted.off.o / truth.off.o, 1.0, 0.10);
  EXPECT_NEAR(fitted.off.L, truth.off.L, 0.50);
  EXPECT_NEAR(fitted.on.ocopy / truth.on.ocopy, 1.0, 0.10);
}

TEST(Calibrate, FitRejectsOneSidedCurves) {
  const auto truth = wl::xt4();
  const auto curve =
      wcal::measure_curve(truth, false, {64, 128, 256, 512});
  EXPECT_THROW(wcal::fit_offnode(curve, truth.eager_limit_bytes),
               wave::common::contract_error);
}

TEST(Calibrate, DefaultSizesBracketTheEagerLimit) {
  const auto sizes = wcal::default_sizes();
  int below = 0, above = 0;
  for (int s : sizes) (s <= 1024 ? below : above)++;
  EXPECT_GE(below, 2);
  EXPECT_GE(above, 2);
  // Includes the 1025-byte point that exposes the protocol jump (§3.1).
  EXPECT_NE(std::find(sizes.begin(), sizes.end(), 1025), sizes.end());
}

TEST(Calibrate, CurveIsSorted) {
  const auto truth = wl::xt4();
  const auto curve =
      wcal::measure_curve(truth, false, {4096, 64, 1025, 512});
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LT(curve[i - 1].bytes, curve[i].bytes);
}

// Property: the fit is exact for any LogGP machine, not just the XT4.
class CalibrateRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CalibrateRoundTrip, RecoversScaledMachines) {
  wl::MachineParams truth = wl::xt4();
  const double k = GetParam();
  truth.off.G *= k;
  truth.off.L *= k;
  truth.off.o *= k;
  truth.on.Gcopy *= k;
  truth.on.Gdma *= k;
  truth.on.o *= k;
  truth.on.ocopy *= k;
  const auto fitted = calibrate(truth);
  EXPECT_NEAR(fitted.off.G / truth.off.G, 1.0, 1e-6);
  EXPECT_NEAR(fitted.off.o / truth.off.o, 1.0, 1e-6);
  EXPECT_NEAR(fitted.on.Gdma / truth.on.Gdma, 1.0, 1e-6);
  EXPECT_NEAR(fitted.on.o / truth.on.o, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(MachineScales, CalibrateRoundTrip,
                         ::testing::Values(0.5, 2.0, 10.0, 50.0));

// ---- measured-curve CSV ingestion (PR 10) ------------------------------

namespace {

// Extracts the message from the ConfigError `fn` throws, failing if it
// does not throw — file:line error messages are part of the contract.
template <typename Fn>
std::string config_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const wave::core::ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected core::ConfigError";
  return {};
}

}  // namespace

TEST(CalibrateCsv, ParsesCommentsHeaderAndUnsortedRows) {
  const auto curve = wcal::parse_curve_csv(
      "# measured on the real machine\n"
      "bytes,time_us\n"
      "4096, 12.5\n"
      "\n"
      "64,3.25\n"
      "1025,7.0\n",
      "pingpong.csv");
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].bytes, 64);
  EXPECT_EQ(curve[2].bytes, 4096);
  EXPECT_DOUBLE_EQ(curve[1].time, 7.0);
}

TEST(CalibrateCsv, MalformedRowsNameSourceAndLine) {
  // A non-numeric row after real data is an error, not a second header.
  const std::string late_header = config_error_of([] {
    wcal::parse_curve_csv("64,3.0\nbytes,time\n", "late.csv");
  });
  EXPECT_NE(late_header.find("late.csv:2"), std::string::npos);

  const std::string missing_col =
      config_error_of([] { wcal::parse_curve_csv("64\n", "cols.csv"); });
  EXPECT_NE(missing_col.find("cols.csv:1"), std::string::npos);

  const std::string bad_bytes = config_error_of(
      [] { wcal::parse_curve_csv("0,1.5\n", "domain.csv"); });
  EXPECT_NE(bad_bytes.find("domain.csv:1"), std::string::npos);

  const std::string bad_time = config_error_of(
      [] { wcal::parse_curve_csv("64,-2.0\n", "time.csv"); });
  EXPECT_NE(bad_time.find("time.csv:1"), std::string::npos);
}

TEST(CalibrateCsv, MissingFileNamesThePath) {
  const std::string err = config_error_of(
      [] { wcal::load_curve_csv("/nonexistent/pingpong.csv"); });
  EXPECT_NE(err.find("/nonexistent/pingpong.csv"), std::string::npos);
}

TEST(CalibrateCsv, CsvCurveFitsLikeTheInMemoryCurve) {
  // Serializing a simulator-measured curve through CSV text and fitting
  // the parse result must reproduce the direct fit bit-for-bit: the
  // ingestion path adds no numeric laundering.
  const auto truth = wl::xt4();
  const auto direct = wcal::measure_curve(truth, /*on_chip=*/false,
                                          wcal::default_sizes());
  std::string csv = "bytes,time_us\n";
  for (const auto& s : direct) {
    char row[64];
    std::snprintf(row, sizeof row, "%d,%.17g\n", s.bytes, s.time);
    csv += row;
  }
  const auto parsed = wcal::parse_curve_csv(csv, "roundtrip.csv");
  ASSERT_EQ(parsed.size(), direct.size());
  const auto fit_direct = wcal::fit_offnode(direct, truth.eager_limit_bytes);
  const auto fit_parsed = wcal::fit_offnode(parsed, truth.eager_limit_bytes);
  EXPECT_EQ(fit_direct.G, fit_parsed.G);
  EXPECT_EQ(fit_direct.L, fit_parsed.L);
  EXPECT_EQ(fit_direct.o, fit_parsed.o);
}

TEST(CalibrateCsv, NonFiniteTimesAndOversizedByteCountsNameTheLine) {
  // A parsed `inf` time used to reach fit_machine and abort with a
  // contract_error; a byte count outside int's range was cast to int
  // before its range check, which is undefined behaviour.
  const std::string dir = WAVE_TESTDATA_DIR;
  const std::string inf_time = dir + "/curve_csv_infinite_time.csv";
  EXPECT_NE(config_error_of([&] { wcal::load_curve_csv(inf_time); })
                .find(inf_time + ":5: measured time must be finite"),
            std::string::npos);
  const std::string big = dir + "/curve_csv_byte_count_overflow.csv";
  EXPECT_NE(config_error_of([&] { wcal::load_curve_csv(big); })
                .find(big + ":5: message size must be a whole byte count"),
            std::string::npos);

  for (const char* row : {"64,nan", "64,-inf", "64,1e999"}) {
    const std::string err =
        config_error_of([&] { wcal::parse_curve_csv(row, "time.csv"); });
    EXPECT_EQ(err.rfind("time.csv:1: measured time", 0), 0u) << row;
  }
  for (const char* row : {"inf,3.0", "nan,3.0", "-inf,3.0", "2147483648,3.0",
                          "1e10,3.0", "64.5,3.0"}) {
    const std::string err =
        config_error_of([&] { wcal::parse_curve_csv(row, "bytes.csv"); });
    EXPECT_EQ(err.rfind("bytes.csv:1: message size", 0), 0u) << row;
  }
  EXPECT_EQ(wcal::parse_curve_csv("2147483647,3.0", "max.csv")[0].bytes,
            2147483647);
}

TEST(CalibrateCsv, WellFormedCurvesTheFitCannotUseThrowContractError) {
  // Both files parse; their fits fail. table2_calibration aborted on them
  // with an uncaught contract_error before it fitted CSV curves eagerly.
  const std::string dir = WAVE_TESTDATA_DIR;
  const wl::MachineParams truth = wl::xt4();
  const auto on = wcal::measure_curve(truth, true, wcal::default_sizes());
  const struct {
    const char* file;
    const char* reason;
  } cases[] = {
      {"curve_csv_no_rendezvous_rows.csv",
       "need at least two rendezvous-size measurements"},
      {"curve_csv_negative_slope.csv",
       "off-node LogGP parameters out of domain"},
  };
  for (const auto& c : cases) {
    const auto off = wcal::load_curve_csv(dir + "/" + c.file);
    try {
      wcal::fit_machine(off, on, truth.eager_limit_bytes);
      ADD_FAILURE() << c.file << " fitted";
    } catch (const wave::common::contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.reason), std::string::npos)
          << c.file << ": " << e.what();
    }
  }
}

TEST(CurveCsvFuzz, SeededMutantsParseOrFailNamingTheSource) {
  // A valid measured curve, as a user would write it: a comment, a header
  // and full-precision rows. Every seeded mutant (byte flips, truncations,
  // duplicated and deleted lines) must parse to finite, positive samples
  // or throw a ConfigError that starts with the source.
  std::string original = "# off-node ping-pong, XT4\nbytes,time_us\n";
  for (const auto& s : wcal::measure_curve(wl::xt4(), /*on_chip=*/false,
                                           wcal::default_sizes())) {
    char row[64];
    std::snprintf(row, sizeof row, "%d,%.17g\n", s.bytes, s.time);
    original += row;
  }
  const std::string source = "measured.csv";
  wave::common::Rng rng(20082);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = fuzz_test::mutate(original, rng);
    try {
      const wcal::Curve curve = wcal::parse_curve_csv(text, source);
      for (const wcal::Sample& s : curve)
        ASSERT_TRUE(s.bytes >= 1 && std::isfinite(s.time) && s.time > 0.0)
            << "mutant " << i << " parsed to (" << s.bytes << ", " << s.time
            << "):\n"
            << text;
      ++parsed;
    } catch (const wave::core::ConfigError& e) {
      const std::string what = e.what();
      ASSERT_EQ(what.rfind(source, 0), 0u)
          << "ConfigError does not start with the source: " << what;
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " escaped as another exception: "
             << e.what() << "\n"
             << text;
    }
  }
  // Both outcomes occur, so the mutants reach past the first line.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

// ---- fitted-config emission (PR 10: calibrate -> optimize) -------------

TEST(CalibrateEmit, FittedConfigRoundTripsByteStably) {
  // The emit path table2_calibration --emit-machine uses: overwrite a
  // catalog machine's LogGP block with fitted values, serialize, parse.
  wave::core::MachineConfig machine = wave::core::MachineConfig::xt4_dual_core();
  machine.name = "unit-fitted";
  machine.loggp = calibrate(wl::xt4());

  const wave::loggp::CommModelRegistry registry;  // builtins only
  const std::string text = wave::core::write_machine_config(machine);
  const auto reloaded =
      wave::core::parse_machine_config(text, "emitted", registry);
  EXPECT_EQ(reloaded, machine);
  // Idempotent: a second write of the parse result is the same bytes.
  EXPECT_EQ(wave::core::write_machine_config(reloaded), text);
}
