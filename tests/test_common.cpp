// Unit tests for wave::common — statistics, units, tables, CLI, RNG.
#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/table.h"
#include "common/units.h"

namespace wc = wave::common;

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(wc::usec_to_sec(1.0e6), 1.0);
  EXPECT_DOUBLE_EQ(wc::sec_to_usec(2.5), 2.5e6);
  EXPECT_DOUBLE_EQ(wc::usec_to_days(86'400.0 * 1e6), 1.0);
  EXPECT_DOUBLE_EQ(wc::sec_to_days(43'200.0), 0.5);
}

TEST(Units, RelativeError) {
  EXPECT_DOUBLE_EQ(wc::relative_error(110.0, 100.0), 0.10);
  EXPECT_DOUBLE_EQ(wc::relative_error(90.0, 100.0), 0.10);
  EXPECT_DOUBLE_EQ(wc::relative_error(100.0, 100.0), 0.0);
}

TEST(Statistics, LineFitExact) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  const double ys[] = {3.0, 5.0, 7.0, 9.0};  // y = 2x + 1
  const auto fit = wc::fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Statistics, LineFitRejectsDegenerate) {
  const double xs[] = {1.0, 1.0};
  const double ys[] = {1.0, 2.0};
  EXPECT_THROW(wc::fit_line(xs, ys), wc::contract_error);
  EXPECT_THROW(wc::fit_line({}, {}), wc::contract_error);
}

TEST(Statistics, ExactLog2) {
  EXPECT_EQ(wc::exact_log2(1), 0u);
  EXPECT_EQ(wc::exact_log2(2), 1u);
  EXPECT_EQ(wc::exact_log2(1024), 10u);
  EXPECT_THROW(wc::exact_log2(3), wc::contract_error);
  EXPECT_THROW(wc::exact_log2(0), wc::contract_error);
}

TEST(Statistics, IsPowerOfTwo) {
  EXPECT_TRUE(wc::is_power_of_two(1));
  EXPECT_TRUE(wc::is_power_of_two(4096));
  EXPECT_FALSE(wc::is_power_of_two(0));
  EXPECT_FALSE(wc::is_power_of_two(6));
}

TEST(Rng, Deterministic) {
  wc::Rng a(7), b(7);
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, JitterStaysPositive) {
  wc::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.jitter(1.0, 0.5), 0.0);
}

TEST(Rng, JitterIsCentred) {
  wc::Rng rng(11);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.jitter(10.0, 0.02);
  EXPECT_NEAR(sum / n, 10.0, 0.01);
}

TEST(Table, AlignsAndCounts) {
  wc::Table t({"P", "time"});
  t.add_row({"16", "1.5"});
  t.add_row({"1024", "0.25"});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("P"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, Csv) {
  wc::Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsRaggedRow) {
  wc::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), wc::contract_error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(wc::Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(wc::Table::integer(42), "42");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--flag", "--key=value", "--num", "7", "pos"};
  wc::Cli cli(6, argv);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("absent"));
  EXPECT_EQ(cli.get("key", ""), "value");
  EXPECT_EQ(cli.get_int("num", 0), 7);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  wc::Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "d"), "d");
  EXPECT_EQ(cli.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
}

TEST(Cli, WholeNumbersParse) {
  const char* argv[] = {"prog", "--n=-12", "--x=2.5e3", "--y", "7"};
  wc::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2500.0);
  EXPECT_DOUBLE_EQ(cli.get_double("y", 0.0), 7.0);
  EXPECT_EQ(wc::parse_int("3x2"), std::nullopt);
  EXPECT_EQ(wc::parse_int("99999999999999999999"), std::nullopt);
  EXPECT_EQ(wc::parse_double("1.5.2"), std::nullopt);
  EXPECT_EQ(wc::parse_double(""), std::nullopt);
}

// A malformed numeric flag exits non-zero naming the flag and the value,
// instead of reading as 0 or as its leading digits.
TEST(CliDeathTest, MalformedNumbersAreFatal) {
  const char* argv[] = {"prog", "--top-k=two", "--processors=16,3x2",
                        "--noise", "0.5x"};
  wc::Cli cli(5, argv);
  EXPECT_EXIT(cli.get_int("top-k", 2), testing::ExitedWithCode(1),
              "--top-k.*'two'");
  EXPECT_EXIT(cli.get_int("processors", 0), testing::ExitedWithCode(1),
              "--processors.*'16,3x2'");
  EXPECT_EXIT(cli.get_double("noise", 0.0), testing::ExitedWithCode(1),
              "--noise.*'0.5x'");
}

TEST(Contracts, MessagesCarryContext) {
  try {
    WAVE_EXPECTS_MSG(false, "broken invariant");
    FAIL() << "should have thrown";
  } catch (const wc::contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
  }
}
