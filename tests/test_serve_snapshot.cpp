// Crash-safe cache snapshots: bit-identical round-trips, the versioned
// checksummed header, loud rejection of every corruption class (empty,
// truncated, bad magic, wrong version, flipped payload bits, trailing
// bytes, out-of-range flags and reserved words), a seeded mutation
// fuzzer, write atomicity under injected failures, and the full
// stop-the-daemon / restart-warm cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz_util.h"
#include "serve/faults.h"
#include "serve/snapshot.h"
#include "serve_test_util.h"
#include "wave/context.h"
#include "wave/eval_service.h"

namespace ws = wave::serve;
using serve_test::ServerFixture;
using serve_test::unique_path;

namespace {

std::vector<wave::EvalService::CacheEntry> sample_entries() {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  for (int p : {16, 256})
    EXPECT_TRUE(
        service.evaluate(ctx.query().machine("xt4-dual").processors(p)).ok());
  EXPECT_TRUE(service
                  .evaluate(ctx.query()
                                .machine("xt4-dual")
                                .processors(16)
                                .engine(wave::Engine::Simulation))
                  .ok());
  return service.export_cache();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

/// `image` with its header checksum recomputed over the (doctored)
/// payload: FNV-1a 64 over the bytes after the 32-byte header, stored at
/// offset 24, same constants as the writer. Shorter images are returned
/// unchanged.
std::string reseal(std::string image) {
  if (image.size() < 32) return image;
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 32; i < image.size(); ++i) {
    h ^= static_cast<unsigned char>(image[i]);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i)
    image[24 + i] = static_cast<char>(h >> (8 * i));
  return image;
}

void expect_rejected(const std::string& image, const char* needle) {
  const auto decoded = ws::decode_snapshot(image);
  ASSERT_FALSE(decoded.ok()) << "corruption was accepted: " << needle;
  EXPECT_EQ(decoded.status().code(), wave::StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find(needle), std::string::npos)
      << decoded.status().message();
}

}  // namespace

TEST(ServeSnapshot, RoundTripIsBitIdentical) {
  const auto entries = sample_entries();
  ASSERT_EQ(entries.size(), 3u);
  const std::string image = ws::encode_snapshot(entries);
  const auto decoded = ws::decode_snapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& a = entries[i];
    const auto& b = decoded.value()[i];
    EXPECT_EQ(a.key, b.key);
    // memcmp, not ==: the contract is bit-identity, and -0.0 == 0.0 or
    // NaN quirks must not be able to hide a serialization bug.
    EXPECT_EQ(std::memcmp(&a.result.time_us, &b.result.time_us,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.result.comm_us, &b.result.comm_us,
                          sizeof(double)),
              0);
    ASSERT_EQ(a.result.terms.size(), b.result.terms.size());
    for (std::size_t t = 0; t < a.result.terms.size(); ++t) {
      EXPECT_EQ(a.result.terms[t].first, b.result.terms[t].first);
      EXPECT_EQ(std::memcmp(&a.result.terms[t].second,
                            &b.result.terms[t].second, sizeof(double)),
                0);
    }
    EXPECT_EQ(a.result.engine, b.result.engine);
    EXPECT_EQ(a.result.processors, b.result.processors);
  }
  // Re-encoding the decoded entries reproduces the image byte for byte.
  EXPECT_EQ(ws::encode_snapshot(decoded.value()), image);
}

TEST(ServeSnapshot, EveryCorruptionClassIsRejectedWithItsOwnDiagnosis) {
  const std::string image = ws::encode_snapshot(sample_entries());

  expect_rejected("", "empty file");
  expect_rejected(image.substr(0, 10), "truncated header");

  std::string bad_magic = image;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "bad magic");

  std::string bad_version = image;
  bad_version[8] = 99;  // version u32 sits right after the 8-byte magic
  expect_rejected(bad_version, "unsupported version 99");

  // Version-1 images hold `wave-scenario/1` keys, which no query maps to
  // any more: they must fail loudly, not load and silently never hit.
  std::string version_one = image;
  version_one[8] = 1;
  expect_rejected(version_one, "unsupported version 1 ");

  // The reserved u32 follows the version; the checksum does not cover it.
  std::string bad_reserved = image;
  bad_reserved[12] = 7;
  expect_rejected(bad_reserved, "nonzero reserved header word 7");

  std::string flipped = image;
  flipped[flipped.size() - 1] ^= 0x40;  // payload bit flip
  expect_rejected(flipped, "checksum mismatch");

  // Truncating the payload also lands in the checksum (it covers length
  // implicitly: fewer bytes hash differently).
  expect_rejected(image.substr(0, image.size() - 8), "checksum mismatch");

  std::string trailing = image + std::string(4, '\0');
  expect_rejected(trailing, "checksum mismatch");
}

TEST(ServeSnapshot, FramingLiesInsideAValidChecksumAreStillRejected) {
  // An attacker-grade case: rewrite a length field AND fix up the
  // checksum, so only the bounds-checked entry reader can catch it.
  const auto entries = sample_entries();
  std::string image = ws::encode_snapshot(entries);
  // The first payload field is the first entry's key length (u64, little-
  // endian, at offset 32). Claim more bytes than the payload holds.
  image[32] = static_cast<char>(0xff);
  image[33] = static_cast<char>(0xff);
  image[34] = static_cast<char>(0xff);
  expect_rejected(reseal(image), "malformed entry framing");
}

TEST(ServeSnapshot, MissingFileIsACleanColdStartNotAnError) {
  const auto missing = ws::read_snapshot(unique_path(".absent"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), wave::StatusCode::kNotFound);
}

TEST(ServeSnapshot, WriteIsAtomicAndInjectedFailureKeepsThePrevious) {
  const std::string path = unique_path(".snap");
  const auto entries = sample_entries();
  ASSERT_TRUE(ws::write_snapshot(path, entries).is_ok());
  const std::string before = read_file(path);

  // The injected failure fires in the crash window (after serialization,
  // before rename): the failed write must leave the previous snapshot
  // byte-identical and no temp litter behind.
  ws::FaultPlan::Spec spec;
  spec.fail_snapshot_writes = 1;
  ws::FaultPlan faults(spec);
  std::vector<wave::EvalService::CacheEntry> smaller(entries.begin(),
                                                     entries.begin() + 1);
  const wave::Status failed = ws::write_snapshot(path, smaller, &faults);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(read_file(path), before);

  // The budget is consumed: the next write succeeds and replaces it.
  ASSERT_TRUE(ws::write_snapshot(path, smaller, &faults).is_ok());
  EXPECT_NE(read_file(path), before);
  const auto reread = ws::read_snapshot(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().size(), 1u);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, ServerRestartServesByteIdenticalResponsesFromTheSnapshot) {
  const std::string snapshot = unique_path(".snap");
  const std::string query =
      R"({"id":"q","op":"eval","processors":256,"iterations":3})";
  std::string cold_response;
  {
    wave::ServeOptions options;
    options.snapshot_path = snapshot;
    ServerFixture f(options);
    cold_response = f.call(query).raw;
    ASSERT_TRUE(f.call(R"({"id":"s","op":"snapshot"})").ok);
    EXPECT_EQ(f.server->stats().snapshots_written, 1u);
  }  // daemon gone
  {
    wave::ServeOptions options;
    options.snapshot_path = snapshot;
    ServerFixture f(options);
    EXPECT_EQ(f.server->stats().restored_entries, 1u);
    // The restored cache answers without re-evaluating, byte-identical
    // down to the rendered JSON (raw doubles survived the disk trip).
    EXPECT_EQ(f.call(query).raw, cold_response);
    EXPECT_EQ(f.cache_stat("hits"), 1.0);
    EXPECT_EQ(f.cache_stat("misses"), 0.0);
  }
  std::remove(snapshot.c_str());
}

TEST(ServeSnapshot, CorruptSnapshotColdStartsLoudlyAndServesOn) {
  const std::string snapshot = unique_path(".snap");
  {
    std::ofstream out(snapshot, std::ios::binary);
    out << "WAVESNAPgarbage-after-the-magic";
  }
  wave::ServeOptions options;
  options.snapshot_path = snapshot;
  ServerFixture f(options);
  const wave::ServeStats stats = f.server->stats();
  EXPECT_TRUE(stats.snapshot_load_failed);
  EXPECT_EQ(stats.restored_entries, 0u);
  // Cold but alive: evaluation works and the next snapshot op heals it.
  EXPECT_TRUE(f.call(R"({"id":"e","op":"eval","processors":64})").ok);
  ASSERT_TRUE(f.call(R"({"id":"s","op":"snapshot"})").ok);
  const auto healed = ws::read_snapshot(snapshot);
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  EXPECT_EQ(healed.value().size(), 1u);
  std::remove(snapshot.c_str());
}

namespace {

/// "" when `image` decodes to entries that re-encode to the same bytes,
/// or is rejected as kInvalidArgument with a diagnosis; else what went
/// wrong.
std::string round_trips_or_is_rejected(const std::string& image) {
  const auto decoded = ws::decode_snapshot(image);
  if (decoded.ok())
    return ws::encode_snapshot(decoded.value()) == image
               ? ""
               : "accepted, but re-encodes to different bytes";
  const std::string& why = decoded.status().message();
  if (decoded.status().code() != wave::StatusCode::kInvalidArgument)
    return "rejected with the wrong code: " + decoded.status().to_string();
  if (why.rfind("snapshot rejected: ", 0) != 0 || why.size() < 24)
    return "rejected without a diagnosis: " + why;
  return "";
}

}  // namespace

TEST(SnapshotFuzz, SeededMutantsRoundTripOrAreRejected) {
  // Raw mutants mostly die at the checksum, so each one is also tried
  // re-sealed: that reaches the entry decoder with every field the
  // mutation touched.
  const std::string original = ws::encode_snapshot(sample_entries());
  wave::common::Rng rng(20083);
  constexpr int kMutants = 2000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string raw = fuzz_test::mutate(original, rng);
    for (const std::string& image : {raw, reseal(raw)}) {
      const std::string problem = round_trips_or_is_rejected(image);
      ASSERT_TRUE(problem.empty()) << problem << " (mutant " << i << ", "
                                   << image.size() << " bytes)";
    }
  }
}

TEST(SnapshotFuzz, PinnedHostileInputs) {
  // Inputs the fuzzer found. Each is well-framed and correctly sealed, so
  // only the field checks can reject it.
  const std::string dir = WAVE_TESTDATA_DIR;
  struct Pinned {
    const char* file;
    const char* diagnosis;
  };
  for (const Pinned& p : {
           Pinned{"snapshot_engine_flag.bin", "engine flag 20481 at entry 2"},
           Pinned{"snapshot_validated_flag.bin", "validated flag 3774873600"},
           Pinned{"snapshot_within_tolerance_flag.bin",
                  "within_tolerance flag 191 at entry 2"},
       }) {
    const std::string image = fuzz_test::slurp(dir + "/" + p.file);
    ASSERT_FALSE(image.empty()) << p.file;
    expect_rejected(image, p.diagnosis);
  }
}
