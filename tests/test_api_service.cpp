// The memoizing EvalService: cache determinism (hits are bit-identical
// with the first evaluation), the canonical-key identity, the capacity
// bound, error handling, and thread-safety under concurrent mixed
// queries.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.h"
#include "runner/runner.h"
#include "wave/wave.h"

namespace {

/// Bit-exact Result comparison: every double compared by memcmp, so an
/// "equal-looking" recomputation with different rounding would fail.
void expect_bit_identical(const wave::Result& a, const wave::Result& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  EXPECT_TRUE(same_bits(a.time_us, b.time_us));
  EXPECT_TRUE(same_bits(a.comm_us, b.comm_us));
  EXPECT_TRUE(same_bits(a.model_us, b.model_us));
  EXPECT_TRUE(same_bits(a.sim_us, b.sim_us));
  EXPECT_TRUE(same_bits(a.divergence_pct, b.divergence_pct));
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].first, b.terms[i].first);
    EXPECT_TRUE(same_bits(a.terms[i].second, b.terms[i].second))
        << a.terms[i].first;
  }
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.comm_model, b.comm_model);
}

}  // namespace

TEST(EvalService, HitReturnsBitIdenticalResultAndCounts) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query q = ctx.query().machine("xt4-dual").processors(256);

  const auto first = service.evaluate(q);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  auto stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 1u);

  const auto second = service.evaluate(q);
  ASSERT_TRUE(second.ok());
  expect_bit_identical(first.value(), second.value());
  stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(EvalService, SimulationResultsAreCachedToo) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query q = ctx.query()
                            .machine("xt4-single")
                            .processors(16)
                            .engine(wave::Engine::Simulation);
  const auto a = service.evaluate(q);
  const auto b = service.evaluate(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  expect_bit_identical(a.value(), b.value());
  EXPECT_EQ(service.stats().hits, 1u);
}

// The sim_threads shim does not enter the cache key: every count runs the
// same serial engine, so the second query is a hit on the first's entry.
TEST(EvalService, SimThreadsShimSharesOneCacheEntry) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query q = ctx.query()
                            .machine("xt4-dual")
                            .processors(64)
                            .engine(wave::Engine::Simulation);
  const auto a = service.evaluate(wave::Query(q).sim_threads(0));
  const auto b = service.evaluate(wave::Query(q).sim_threads(4));
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  expect_bit_identical(a.value(), b.value());
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().hits, 1u);
}

// The hit histogram times the whole evaluate() call — scenario resolution
// and key construction included — so its sum accounts for nearly all of
// the wall time a caller measures around the same hits.
TEST(EvalService, HitLatencyHistogramCoversTheWholeCall) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query q = ctx.query().machine("xt4-dual").processors(256);
  ASSERT_TRUE(service.evaluate(q).ok());  // the one miss

  constexpr int kHits = 2000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kHits; ++i) ASSERT_TRUE(service.evaluate(q).ok());
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  double hit_sum_us = 0.0;
  std::uint64_t hit_count = 0;
  for (const auto& h : service.metrics().histograms) {
    if (h.name.find("_hit_latency_us") == std::string::npos) continue;
    hit_sum_us += h.sum;
    hit_count += h.count;
  }
  EXPECT_EQ(hit_count, static_cast<std::uint64_t>(kHits));
  EXPECT_GE(hit_sum_us, 0.8 * wall_us)
      << "histograms saw " << hit_sum_us << " us of " << wall_us << " us";
}

TEST(EvalService, DistinctQueriesHaveDistinctKeys) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query base = ctx.query().machine("xt4-dual").processors(256);
  // Every axis of the canonical identity separates.
  const std::vector<wave::Query> variants = {
      ctx.query().machine("xt4-single").processors(256),
      ctx.query().machine("xt4-dual").processors(512),
      ctx.query().machine("xt4-dual").processors(256).comm_model("loggps"),
      ctx.query().machine("xt4-dual").processors(256).workload("pingpong"),
      ctx.query().machine("xt4-dual").processors(256).engine(
          wave::Engine::Simulation),
      ctx.query().machine("xt4-dual").processors(256).param("htile", 2.0),
      ctx.query().machine("xt4-dual").processors(256).app("sweep3d-20m"),
      ctx.query().machine("xt4-dual").processors(256).iterations(2),
  };
  const std::string base_key = service.canonical_key(base);
  for (const wave::Query& q : variants)
    EXPECT_NE(service.canonical_key(q), base_key);
  // And the key is a pure function of the query.
  EXPECT_EQ(service.canonical_key(base), base_key);
}

TEST(EvalService, CanonicalKeyTextIsPinned) {
  // Every key field set at once. The text is the cache identity (and the
  // snapshot format's keys), so it must not drift by a byte.
  const wave::Context ctx;
  const wave::EvalService service(ctx);
  const wave::Query q = ctx.query()
                            .machine("xt4-single")
                            .grid(4, 2)
                            .iterations(3)
                            .comm_model("loggps")
                            .app("lu")
                            .wg(0.25)
                            .problem(64, 48, 32)
                            .param("bytes", 4096)
                            .param("alpha", 0.1)
                            .validate()
                            .engine(wave::Engine::Simulation);
  EXPECT_EQ(service.canonical_key(q), R"(wave-scenario/2
workload=wavefront
engine=sim
validate=1
grid=4x2
iterations=3
comm_override=loggps
app=lu
wg=0.25
problem=64,48,32
param.alpha=0.10000000000000001
param.bytes=4096
machine:
name = xt4-single
comm_model = loggp
cx = 1
cy = 1
buses_per_node = 1
synchronization_terms = false
eager_limit_bytes = 1024
off.G = 0.0004
off.L = 0.305
off.o = 3.92
off.oh = 0
off.sync = 0
on.Gcopy = 0.000789
on.Gdma = 7.2e-05
on.o = 3.8
on.ocopy = 1.98
)");
}

TEST(EvalService, CapacityBoundResetsTheGeneration) {
  const wave::Context ctx;
  wave::EvalService service(ctx, wave::EvalService::Options(4));
  for (int p = 1; p <= 6; ++p) {
    const auto r = service.evaluate(ctx.query().processors(p));
    ASSERT_TRUE(r.ok());
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.resets, 1u);      // 4 cached -> reset -> 2 cached
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(EvalService, ErrorsAreReportedAndNeverCached) {
  wave::Context ctx;
  wave::EvalService service(ctx);
  const wave::Query bad = ctx.query().workload("not-registered");
  EXPECT_FALSE(service.evaluate(bad).ok());
  EXPECT_FALSE(service.evaluate(bad).ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(EvalService, ClearDropsEntriesButKeepsCounters) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  ASSERT_TRUE(service.evaluate(ctx.query().processors(64)).ok());
  ASSERT_TRUE(service.evaluate(ctx.query().processors(64)).ok());
  service.clear();
  auto stats = service.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 1u);
  // The next identical query misses again and repopulates.
  ASSERT_TRUE(service.evaluate(ctx.query().processors(64)).ok());
  EXPECT_EQ(service.stats().misses, 2u);
}

TEST(EvalService, ConcurrentMixedQueriesAgreeWithSerialReference) {
  const wave::Context ctx;

  // The mixed query set: analytic points at several depths plus a couple
  // of small DES points (long enough to hold the evaluation slot while
  // other threads hit and miss around it).
  std::vector<wave::Query> queries;
  for (int p : {16, 64, 256, 1024})
    queries.push_back(ctx.query().machine("xt4-dual").processors(p));
  queries.push_back(ctx.query().machine("xt4-single").processors(16).engine(
      wave::Engine::Simulation));
  queries.push_back(ctx.query().workload("pingpong").processors(2).engine(
      wave::Engine::Simulation));

  // Serial reference results (its own service; determinism across service
  // instances is part of the contract).
  wave::EvalService reference(ctx);
  std::vector<wave::Result> expected;
  for (const wave::Query& q : queries) {
    auto r = reference.evaluate(q);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    expected.push_back(r.value());
  }

  wave::EvalService service(ctx);
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::vector<wave::Result>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Offset the start so threads collide on different keys.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t at =
              (i + static_cast<std::size_t>(t)) % queries.size();
          auto r = service.evaluate(queries[at]);
          if (r.ok() && round == 0) got[t].push_back(r.value());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Every thread's first pass observed exactly the serial answers.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::size_t at =
          (i + static_cast<std::size_t>(t)) % queries.size();
      expect_bit_identical(got[t][i], expected[at]);
    }
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.size, queries.size());
  EXPECT_EQ(stats.errors, 0u);
  // Racing threads may each evaluate a key before the first store lands,
  // so misses can exceed the distinct-query count — but every remaining
  // call must have hit.
  EXPECT_GE(stats.misses, queries.size());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds * queries.size());
}

TEST(EvalServiceWarm, WarmPopulatesEveryStudyPoint) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const auto added = service.warm(ctx.study()
                                      .machines({"xt4-dual", "xt4-single"})
                                      .comm_models({"loggp", "loggps"})
                                      .processors({64, 256, 1024}));
  ASSERT_TRUE(added.ok()) << added.status().to_string();
  EXPECT_EQ(added.value(), 12u);
  EXPECT_EQ(service.stats().size, 12u);

  // Every point of the grid now hits.
  for (const char* machine : {"xt4-dual", "xt4-single"})
    for (const char* comm : {"loggp", "loggps"})
      for (int p : {64, 256, 1024}) {
        const auto r = service.evaluate(ctx.query()
                                            .machine(machine)
                                            .comm_model(comm)
                                            .processors(p));
        ASSERT_TRUE(r.ok());
      }
  EXPECT_EQ(service.stats().hits, 12u);
  EXPECT_EQ(service.stats().misses, 12u);  // all from the warm itself
}

TEST(EvalServiceWarm, WarmedResultsAreBitIdenticalWithColdEvaluation) {
  // The warm path runs analytic wavefront points through the batch
  // solver, DES and registry-workload points through the scalar
  // evaluators, and validate points through both engines; every cached
  // Result must still be bit-identical with what a cold evaluate()
  // computes through the scalar pipeline.
  const wave::Context ctx;
  wave::EvalService warmed(ctx);
  ASSERT_TRUE(warmed
                  .warm(ctx.study()
                            .app("sweep3d-20m")
                            .machines({"xt4-dual", "sp2"})
                            .processors({256, 4096})
                            .values("htile", {1.0, 2.0}))
                  .ok());
  ASSERT_TRUE(warmed
                  .warm(ctx.study()
                            .machine("xt4-single")
                            .processors({16})
                            .engines({wave::Engine::Simulation}))
                  .ok());
  ASSERT_TRUE(warmed
                  .warm(ctx.study()
                            .machine("xt4-single")
                            .workload("halo2d")
                            .processors({16, 64}))
                  .ok());
  ASSERT_TRUE(
      warmed.warm(ctx.study().machine("xt4-single").processors({16}).validate())
          .ok());

  std::vector<wave::Query> queries;
  for (const char* machine : {"xt4-dual", "sp2"})
    for (int p : {256, 4096})
      for (double h : {1.0, 2.0})
        queries.push_back(ctx.query()
                              .app("sweep3d-20m")
                              .machine(machine)
                              .processors(p)
                              .param("htile", h));
  queries.push_back(ctx.query()
                        .machine("xt4-single")
                        .processors(16)
                        .engine(wave::Engine::Simulation));
  for (int p : {16, 64})
    queries.push_back(
        ctx.query().machine("xt4-single").workload("halo2d").processors(p));
  queries.push_back(ctx.query().machine("xt4-single").processors(16).validate());

  wave::EvalService cold(ctx);
  for (const wave::Query& q : queries) {
    const auto a = warmed.evaluate(q);
    const auto b = cold.evaluate(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    expect_bit_identical(a.value(), b.value());
    EXPECT_EQ(a.value().processors, b.value().processors);
    EXPECT_EQ(a.value().engine, b.value().engine);
    EXPECT_EQ(a.value().validated, b.value().validated);
    EXPECT_EQ(a.value().within_tolerance, b.value().within_tolerance);
  }
  // The warmed service never evaluated after the warm.
  EXPECT_EQ(warmed.stats().hits, queries.size());
  EXPECT_EQ(warmed.stats().misses, queries.size());
}

TEST(EvalServiceWarm, WorkloadEngineAndValueAxesWarmToBitIdenticalHits) {
  // Each point's key comes from the study's grid scenario; it must equal
  // the key of the equivalent Query, so every point hits afterwards.
  const wave::Context ctx;
  wave::EvalService warmed(ctx);
  const auto added = warmed.warm(
      ctx.study()
          .machine("xt4-single")
          .workloads({"wavefront", "halo2d"})
          .engines({wave::Engine::Model, wave::Engine::Simulation})
          .values("phases", {1.0, 2.0})
          .processors({4, 16}));
  ASSERT_TRUE(added.ok()) << added.status().to_string();
  EXPECT_EQ(added.value(), 16u);

  wave::EvalService cold(ctx);
  std::uint64_t queries = 0;
  for (const char* workload : {"wavefront", "halo2d"})
    for (const auto engine : {wave::Engine::Model, wave::Engine::Simulation})
      for (const double phases : {1.0, 2.0})
        for (const int p : {4, 16}) {
          const wave::Query q = ctx.query()
                                    .machine("xt4-single")
                                    .workload(workload)
                                    .engine(engine)
                                    .param("phases", phases)
                                    .processors(p);
          const auto a = warmed.evaluate(q);
          const auto b = cold.evaluate(q);
          ASSERT_TRUE(a.ok() && b.ok());
          expect_bit_identical(a.value(), b.value());
          EXPECT_EQ(a.value().engine, engine);
          EXPECT_EQ(a.value().processors, p);
          ++queries;
        }
  EXPECT_EQ(warmed.stats().hits, queries);
  EXPECT_EQ(warmed.stats().misses, queries);  // all from the warm itself
}

TEST(EvalServiceWarm, WarmSkipsAlreadyCachedAndDuplicatePoints) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  ASSERT_TRUE(
      service.evaluate(ctx.query().machine("xt4-dual").processors(64)).ok());
  // 64 is cached already; the duplicated 256 collapses to one point.
  const auto added =
      service.warm(ctx.study().machine("xt4-dual").processors({64, 256, 256}));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added.value(), 1u);
  EXPECT_EQ(service.stats().size, 2u);
}

TEST(EvalServiceWarm, MixedEngineAndValidateStudiesWarmToo) {
  // Non-batchable points (DES engine, validate mode) take the scalar
  // evaluators inside warm; they must land in the cache all the same.
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const auto added =
      service.warm(ctx.study().machine("xt4-single").processors({4, 16}).engines(
          {wave::Engine::Model, wave::Engine::Simulation}));
  ASSERT_TRUE(added.ok()) << added.status().to_string();
  EXPECT_EQ(added.value(), 4u);
  const auto sim = service.evaluate(ctx.query()
                                        .machine("xt4-single")
                                        .processors(16)
                                        .engine(wave::Engine::Simulation));
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(service.stats().hits, 1u);

  wave::EvalService validating(ctx);
  const auto v = validating.warm(
      ctx.study().machine("xt4-single").workload("pingpong").processors({2}).validate());
  ASSERT_TRUE(v.ok()) << v.status().to_string();
  EXPECT_EQ(v.value(), 1u);
  const auto hit = validating.evaluate(ctx.query()
                                           .machine("xt4-single")
                                           .workload("pingpong")
                                           .processors(2)
                                           .validate());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().validated);
  EXPECT_EQ(validating.stats().hits, 1u);
}

TEST(EvalServiceWarm, BadAxisValueFailsTheWholeWarm) {
  const wave::Context ctx;
  wave::EvalService service(ctx);
  const auto added = service.warm(
      ctx.study().machines({"xt4-dual", "no-such-machine"}).processors({64}));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), wave::StatusCode::kNotFound);
  // Resolution happens before evaluation: nothing was cached.
  EXPECT_EQ(service.stats().size, 0u);
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(EvalService, PinnedRecordEquivalenceThroughTheFacade) {
  // The facade must answer exactly what the pre-facade pipeline answers:
  // pick a point of the pinned runner_scaling grid and compare the
  // service's cached Result against the direct evaluator.
  const wave::Context ctx;
  wave::runner::Scenario s;
  s.app = wave::workloads::WorkloadInputs::default_app();
  s.machine = wave::core::MachineConfig::xt4_dual_core();
  s.set_processors(256);
  const wave::runner::Metrics direct =
      wave::runner::evaluate_scenario(ctx, s);

  wave::EvalService service(ctx);
  const auto r =
      service.evaluate(ctx.query().machine("xt4-dual").processors(256));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().terms.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(r.value().terms[i].first, direct[i].first);
    EXPECT_EQ(r.value().terms[i].second, direct[i].second);
  }
}

TEST(EvalServiceSharded, ShardedHitsAreBitIdenticalAcrossShardCounts) {
  // The shard count is a concurrency knob, never a semantic one: the same
  // query mix against 1 and 8 shards yields bit-identical Results and the
  // same aggregate hit/miss accounting.
  const wave::Context ctx;
  wave::EvalService one(ctx, wave::EvalService::Options(1024, 1));
  wave::EvalService eight(ctx, wave::EvalService::Options(1024, 8));
  EXPECT_EQ(one.stats().shards, 1u);
  EXPECT_EQ(eight.stats().shards, 8u);
  for (int round = 0; round < 2; ++round) {
    for (int p : {16, 64, 256, 1024}) {
      const wave::Query q = ctx.query().machine("xt4-dual").processors(p);
      const auto a = one.evaluate(q);
      const auto b = eight.evaluate(q);
      ASSERT_TRUE(a.ok() && b.ok());
      expect_bit_identical(a.value(), b.value());
    }
  }
  EXPECT_EQ(one.stats().hits, eight.stats().hits);
  EXPECT_EQ(one.stats().misses, eight.stats().misses);
  EXPECT_EQ(one.stats().size, eight.stats().size);
}

TEST(EvalServiceSharded, StatsAggregateConsistentlyUnderConcurrentLoad) {
  // N threads hammer a sharded service with a mix of repeated and
  // distinct queries; afterwards the aggregated counters must balance
  // exactly: every evaluate() was a hit, a miss or an error, and the
  // cache holds at most what the misses stored.
  const wave::Context ctx;
  wave::EvalService service(ctx, wave::EvalService::Options(4096, 4));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ctx, &service, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // 8 distinct scenarios + 1 error query, interleaved differently
        // per thread so shards see genuinely concurrent mixed traffic.
        const int slot = (i + t) % 9;
        if (slot == 8) {
          (void)service.evaluate(ctx.query().machine("no-such-machine"));
        } else {
          (void)service.evaluate(
              ctx.query().machine("xt4-dual").processors(4 << slot));
        }
      }
    });
  for (std::thread& t : threads) t.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.errors,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.errors, (static_cast<std::uint64_t>(kThreads) * kPerThread) / 9);
  // Concurrent first evaluations may race to store the same scenario
  // (both count as misses, one wins the slot), so size <= misses, and at
  // least the 8 distinct scenarios are resident.
  EXPECT_LE(stats.size, static_cast<std::size_t>(stats.misses));
  EXPECT_EQ(stats.size, 8u);
  EXPECT_EQ(stats.resets, 0u);
}

TEST(EvalServiceSharded, ExportImportRoundTripServesBitIdenticalHits) {
  const wave::Context ctx;
  wave::EvalService source(ctx, wave::EvalService::Options(1024, 4));
  for (int p : {16, 64, 256})
    ASSERT_TRUE(
        source.evaluate(ctx.query().machine("xt4-dual").processors(p)).ok());
  const auto exported = source.export_cache();
  ASSERT_EQ(exported.size(), 3u);
  // Deterministic order: sorted by canonical key, whatever the shard layout.
  for (std::size_t i = 1; i < exported.size(); ++i)
    EXPECT_LT(exported[i - 1].key, exported[i].key);

  wave::EvalService restored(ctx, wave::EvalService::Options(1024, 2));
  EXPECT_EQ(restored.import_cache(exported), 3u);
  EXPECT_EQ(restored.stats().imported, 3u);
  EXPECT_EQ(restored.stats().misses, 0u);
  for (int p : {16, 64, 256}) {
    const wave::Query q = ctx.query().machine("xt4-dual").processors(p);
    const auto cold = source.evaluate(q);
    const auto warm = restored.evaluate(q);
    ASSERT_TRUE(cold.ok() && warm.ok());
    expect_bit_identical(cold.value(), warm.value());
  }
  // All three were hits: nothing was re-evaluated after the import.
  EXPECT_EQ(restored.stats().hits, 3u);
  EXPECT_EQ(restored.stats().misses, 0u);
  // Importing the same entries again is a no-op (live entries win).
  EXPECT_EQ(restored.import_cache(exported), 0u);
}
