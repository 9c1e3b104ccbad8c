// Machine-config parsing: the machines/*.cfg key/value format, its error
// handling (typos must not become silent defaults), round-tripping, and
// the shipped config files — including the acceptance contract that the
// shipped paper-platform config reproduces the compiled-in XT4 machine
// exactly (same solver output as bench/fig06_scaling's preset).
#include <gtest/gtest.h>

#include <string>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/benchmarks.h"
#include "core/machine.h"
#include "core/solver.h"
#include "fuzz_util.h"
#include "loggp/registry.h"

namespace wc = wave::core;

#ifndef WAVE_MACHINES_DIR
#define WAVE_MACHINES_DIR "machines"
#endif

namespace {

/// A minimal valid config body (XT4 Table 2 values).
std::string minimal_cfg() {
  return "off.G = 0.0004\n"
         "off.L = 0.305\n"
         "off.o = 3.92\n"
         "on.Gcopy = 0.000789\n"
         "on.Gdma = 0.000072\n"
         "on.o = 3.80\n"
         "on.ocopy = 1.98\n";
}

std::string shipped(const std::string& file) {
  return std::string(WAVE_MACHINES_DIR) + "/" + file;
}

// Parsing validates comm_model names against a registry; one shared
// default-constructed registry (builtins only) matches what the configs use.
const wave::loggp::CommModelRegistry kReg;

wc::MachineConfig parse(const std::string& text,
                        const std::string& source = "<string>") {
  return wc::parse_machine_config(text, source, kReg);
}

wc::MachineConfig load(const std::string& path) {
  return wc::load_machine_config(path, kReg);
}

}  // namespace

TEST(MachineConfigParse, MinimalConfigGetsXt4SingleCoreDefaults) {
  const wc::MachineConfig m = parse(minimal_cfg());
  EXPECT_EQ(m.comm_model, "loggp");
  EXPECT_EQ(m.cx, 1);
  EXPECT_EQ(m.cy, 1);
  EXPECT_EQ(m.buses_per_node, 1);
  EXPECT_FALSE(m.synchronization_terms);
  EXPECT_EQ(m.loggp.eager_limit_bytes, 1024);
  EXPECT_DOUBLE_EQ(m.loggp.off.G, 0.0004);
  EXPECT_DOUBLE_EQ(m.loggp.off.oh, 0.0);
  EXPECT_DOUBLE_EQ(m.loggp.off.sync, 0.0);
}

TEST(MachineConfigParse, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# header comment\n\n" + minimal_cfg() + "cx = 2  # trailing comment\n";
  EXPECT_EQ(parse(text).cx, 2);
}

TEST(MachineConfigParse, UnknownKeyThrows) {
  try {
    parse(minimal_cfg() + "of.G = 1\n", "typo.cfg");
    FAIL() << "expected ConfigError";
  } catch (const wc::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown machine-config key 'of.G'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("typo.cfg:8"), std::string::npos)
        << e.what();
  }
}

TEST(MachineConfigParse, MissingRequiredKeysThrowsNamingThem) {
  try {
    parse("off.G = 0.0004\noff.L = 0.3\n");
    FAIL() << "expected ConfigError";
  } catch (const wc::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing required key"), std::string::npos) << what;
    EXPECT_NE(what.find("off.o"), std::string::npos) << what;
    EXPECT_NE(what.find("on.Gcopy"), std::string::npos) << what;
  }
}

TEST(MachineConfigParse, DuplicateKeyThrows) {
  EXPECT_THROW(parse(minimal_cfg() + "off.G = 0.1\n"),
               wc::ConfigError);
}

TEST(MachineConfigParse, MalformedValuesThrow) {
  EXPECT_THROW(parse(minimal_cfg() + "cx = fast\n"),
               wc::ConfigError);
  EXPECT_THROW(parse(minimal_cfg() + "cx = 2.5\n"),
               wc::ConfigError);
  EXPECT_THROW(
      parse(minimal_cfg() + "synchronization_terms = ja\n"),
      wc::ConfigError);
  EXPECT_THROW(parse(minimal_cfg() + "just words\n"),
               wc::ConfigError);
}

TEST(MachineConfigParse, NonFiniteAndNegativeParametersThrow) {
  // "nan", "inf" and negative values all parse as doubles, but a NaN gap
  // poisons every prediction and a negative overhead makes time run
  // backwards — each must be rejected at the parse boundary, with the
  // offending file:line and key in the message.
  for (const std::string bad :
       {"nan", "NaN", "inf", "-inf", "1e999", "-0.5"}) {
    const std::string cfg = "off.G = 0.0004\n"
                            "off.L = 0.305\n"
                            "off.o = " + bad + "\n"
                            "on.Gcopy = 0.000789\n"
                            "on.Gdma = 0.000072\n"
                            "on.o = 3.80\n"
                            "on.ocopy = 1.98\n";
    try {
      parse(cfg, "bad.cfg");
      FAIL() << "expected ConfigError for off.o = " << bad;
    } catch (const wc::ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad.cfg:3"), std::string::npos) << what;
      EXPECT_NE(what.find("off.o"), std::string::npos) << what;
    }
  }
  // The optional off-node keys and the on-chip side share the guard.
  EXPECT_THROW(parse(minimal_cfg() + "off.sync = nan\n"), wc::ConfigError);
  EXPECT_THROW(parse(minimal_cfg() + "off.oh = -1\n"), wc::ConfigError);
  EXPECT_THROW(parse("off.G = 0.0004\n"
                     "off.L = 0.305\n"
                     "off.o = 3.92\n"
                     "on.Gcopy = 0.000789\n"
                     "on.Gdma = -0.000072\n"
                     "on.o = 3.80\n"
                     "on.ocopy = 1.98\n"),
               wc::ConfigError);
}

TEST(MachineConfigParse, ZeroParametersStillParse) {
  // Zero is a legitimate calibration value (off.oh and off.sync default
  // to it); the non-negativity guard must not reject the boundary.
  const wc::MachineConfig m = parse(minimal_cfg() + "off.oh = 0\n");
  EXPECT_EQ(m.loggp.off.oh, 0.0);
}

TEST(MachineConfigParse, UnknownCommModelThrowsListingBackends) {
  try {
    parse(minimal_cfg() + "comm_model = telepathy\n");
    FAIL() << "expected ConfigError";
  } catch (const wc::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("telepathy"), std::string::npos) << what;
    EXPECT_NE(what.find("loggp"), std::string::npos) << what;
    EXPECT_NE(what.find("contention"), std::string::npos) << what;
  }
}

TEST(MachineConfigParse, OutOfDomainValuesThrow) {
  // Structurally fine, semantically invalid: validate() failures surface
  // as ConfigError too (3 cores per node is not a power of two).
  EXPECT_THROW(parse(minimal_cfg() + "cx = 3\n"),
               wc::ConfigError);
}

TEST(MachineConfigRoundTrip, WriteThenParseIsIdentity) {
  for (const wc::MachineConfig& m :
       {wc::MachineConfig::xt4_dual_core(), wc::MachineConfig::xt4_single_core(),
        wc::MachineConfig::sp2_single_core(),
        wc::MachineConfig::xt4_with_cores(8, 2)}) {
    const wc::MachineConfig back =
        parse(wc::write_machine_config(m));
    EXPECT_EQ(back, m) << "round-trip changed machine '" << m.name << "'";
  }
}

TEST(MachineConfigRoundTrip, SurvivesAwkwardParameterValues) {
  wc::MachineConfig m = wc::MachineConfig::xt4_dual_core();
  m.comm_model = "loggps";
  m.loggp.off.G = 1.0 / 3.0;  // no short decimal representation
  m.loggp.off.sync = 6.25e-3;
  EXPECT_EQ(parse(wc::write_machine_config(m)), m);
}

TEST(ShippedConfigs, AllLoadAndValidate) {
  for (const char* file :
       {"xt4-dual.cfg", "xt4-single.cfg", "sp2.cfg", "quadcore-shared-bus.cfg",
        "fatnode-loggps.cfg"}) {
    const wc::MachineConfig m = load(shipped(file));
    EXPECT_FALSE(m.name.empty()) << file;
    EXPECT_NO_THROW(m.validate()) << file;
    EXPECT_NO_THROW(m.make_comm_model(kReg)) << file;
  }
}

TEST(ShippedConfigs, Xt4DualMatchesCompiledInPreset) {
  const wc::MachineConfig loaded =
      load(shipped("xt4-dual.cfg"));
  EXPECT_EQ(loaded, wc::MachineConfig::xt4_dual_core());
}

TEST(ShippedConfigs, Xt4DualReproducesFig06NumbersUnderLogGp) {
  // The acceptance contract: the shipped paper-platform config must give
  // byte-for-byte the same model predictions as the compiled-in machine
  // that bench/fig06_scaling always used.
  wc::benchmarks::Sweep3dConfig cfg;
  cfg.energy_groups = 30;
  const auto app = wc::benchmarks::sweep3d(cfg);
  const wc::Solver from_file(app, load(shipped("xt4-dual.cfg")), kReg);
  const wc::Solver preset(app, wc::MachineConfig::xt4_dual_core(), kReg);
  for (int p : {256, 4096, 65536}) {
    const auto a = from_file.evaluate(p);
    const auto b = preset.evaluate(p);
    EXPECT_EQ(a.iteration.total, b.iteration.total) << "P=" << p;
    EXPECT_EQ(a.iteration.comm, b.iteration.comm) << "P=" << p;
    EXPECT_EQ(a.timestep(), b.timestep()) << "P=" << p;
  }
}

TEST(ShippedConfigs, NameDefaultsToFileStem) {
  // sp2.cfg sets its name explicitly; write a nameless config to a string
  // and check the stem default through load_machine_config's path logic is
  // exercised by the shipped files instead. Parsing a nameless body leaves
  // the name empty.
  EXPECT_TRUE(parse(minimal_cfg()).name.empty());
  EXPECT_EQ(load(shipped("sp2.cfg")).name, "sp2");
}

TEST(ShippedConfigs, MissingFileThrows) {
  EXPECT_THROW(load(shipped("no-such-machine.cfg")),
               wc::ConfigError);
}

TEST(MachineConfigParse, OutOfIntRangeValuesThrowInsteadOfOverflowing) {
  EXPECT_THROW(
      parse(minimal_cfg() + "eager_limit_bytes = 3e9\n"),
      wc::ConfigError);
  EXPECT_THROW(parse(minimal_cfg() + "cx = 1e300\n"),
               wc::ConfigError);
}

TEST(MachineConfigRoundTrip, NamesWithInternalSpacesSurvive) {
  wc::MachineConfig m = wc::MachineConfig::xt4_dual_core();
  m.name = "my test cluster v2";
  m.validate();
  EXPECT_EQ(parse(wc::write_machine_config(m)), m);
}

TEST(MachineConfigValidate, RejectsConfigUnsafeNames) {
  // Names that could not survive the cfg serialization are invalid, so
  // the round-trip guarantee holds for every machine validate() accepts.
  for (const char* bad : {"node #1", " padded", "padded ", "two\nlines"}) {
    wc::MachineConfig m = wc::MachineConfig::xt4_dual_core();
    m.name = bad;
    EXPECT_THROW(m.validate(), wave::common::contract_error) << bad;
  }
}

// ---- hostile bytes -----------------------------------------------------

namespace {

using fuzz_test::mutate;
using fuzz_test::slurp;

/// Empty when `text` either parses to a machine that survives
/// write -> parse unchanged, or fails with a ConfigError naming `source`
/// first; otherwise what went wrong.
std::string parse_or_fail_cleanly(const std::string& text,
                                  const std::string& source) {
  try {
    const wc::MachineConfig m = parse(text, source);
    const std::string written = wc::write_machine_config(m);
    const wc::MachineConfig back = parse(written, "<rewritten>");
    if (!(back == m)) return "round trip changed the machine";
    if (wc::write_machine_config(back) != written)
      return "round trip changed the written text";
    return "";
  } catch (const wc::ConfigError& e) {
    const std::string what = e.what();
    if (what.rfind(source, 0) != 0)
      return "ConfigError does not start with the source: " + what;
    return "";
  } catch (const std::exception& e) {
    return std::string("escaped as another exception: ") + e.what();
  }
}

}  // namespace

TEST(MachineConfigFuzz, SeededMutantsParseOrFailNamingTheSource) {
  wave::common::Rng rng(20081);
  int mutants = 0;
  for (const char* file : {"xt4-dual.cfg", "xt4-single.cfg", "sp2.cfg",
                           "quadcore-shared-bus.cfg", "fatnode-loggps.cfg"}) {
    const std::string source = shipped(file);
    const std::string original = slurp(source);
    ASSERT_FALSE(original.empty()) << source;
    for (int i = 0; i < 410; ++i, ++mutants) {
      const std::string text = mutate(original, rng);
      const std::string problem = parse_or_fail_cleanly(text, source);
      ASSERT_TRUE(problem.empty())
          << problem << "\nmutant " << i << " of " << source << ":\n"
          << text;
    }
  }
  EXPECT_GE(mutants, 2000);
}

TEST(MachineConfigFuzz, PinnedHostileInputs) {
  const std::string dir = WAVE_TESTDATA_DIR;
  const std::string subnormal =
      dir + "/machine_config_subnormal_shortening.cfg";
  EXPECT_EQ(parse_or_fail_cleanly(slurp(subnormal), subnormal), "");
  EXPECT_DOUBLE_EQ(load(subnormal).loggp.off.sync, 2.3e-308);

  const std::string overflow = dir + "/machine_config_core_count_overflow.cfg";
  EXPECT_EQ(parse_or_fail_cleanly(slurp(overflow), overflow), "");
  EXPECT_THROW(load(overflow), wc::ConfigError);
}
