// Long-lived, memoizing evaluation service of the `wave::` facade.
//
// Production query traffic is heavily repetitive: a procurement dashboard
// asks for the same few machine × workload × P points over and over. An
// EvalService sits in front of a Context and caches every successful
// Result behind a canonical scenario key, so a repeated query costs one
// hash lookup instead of a model solve (or a multi-second DES run):
//
//   wave::Context ctx;
//   wave::EvalService service(ctx);
//   auto a = service.evaluate(ctx.query().processors(1024));  // miss: solves
//   auto b = service.evaluate(ctx.query().processors(1024));  // hit: O(lookup)
//   assert(service.stats().hits == 1);
//
// Guarantees:
//   - hits return a bit-identical copy of the first evaluation's Result
//     (the evaluation pipeline itself is deterministic, so cold and
//     cached answers never disagree);
//   - evaluate() is thread-safe: concurrent mixed queries may race to
//     fill the same slot, but the first stored Result wins and every
//     caller observes a fully-formed value;
//   - the cache is capacity-bounded: reaching `Options::capacity` distinct
//     scenarios resets the cache generation (counted in Stats::resets) —
//     a deliberately simple bound with no per-entry bookkeeping;
//   - the cache is sharded (`Options::shards`, key hash → shard, each
//     shard behind its own mutex), so concurrent hits on distinct shards
//     never contend — the serving layer (src/serve/) runs one service
//     with as many shards as workers;
//   - errors are never cached: a query that fails (unknown name, bad
//     domain) is re-validated on every call, so fixing the Context
//     (e.g. adding the missing machine) takes effect immediately.
//
// This header is self-contained: it depends only on the C++ standard
// library and the sibling wave/ headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wave/metrics.h"
#include "wave/query.h"
#include "wave/status.h"

namespace wave {

class Context;
class Study;

/// @brief Thread-safe memoizing front-end over a Context.
class EvalService {
 public:
  struct Options {
    /// Distinct scenarios cached before a shard's generation resets
    /// (divided evenly across shards).
    std::size_t capacity;
    /// Independent cache shards (key hash → shard). Each shard owns its
    /// own mutex, so concurrent hits on distinct shards never contend —
    /// hit throughput scales with cores instead of serializing behind one
    /// lock. 1 (the default) is the pre-sharding behaviour.
    std::size_t shards;
    // Written out (not a default member initializer) so the constructor
    // below may default-construct Options before EvalService is complete.
    Options() : capacity(4096), shards(1) {}
    explicit Options(std::size_t capacity_, std::size_t shards_ = 1)
        : capacity(capacity_), shards(shards_) {}
  };

  /// The service borrows `ctx`, which must outlive it. Queries evaluated
  /// through the service resolve against *this* context, regardless of
  /// which context the query was built from.
  explicit EvalService(const Context& ctx, Options options = Options());
  ~EvalService();

  EvalService(EvalService&&) noexcept;
  EvalService& operator=(EvalService&&) noexcept;
  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// @brief The memoized equivalent of query.run(): a cache hit returns a
  ///   bit-identical copy of the first evaluation's Result.
  Expected<Result> evaluate(const Query& query);

  /// @brief Bulk-populates the cache with every point of `study` (the
  ///   cartesian product of its axes over its base scenario), so a
  ///   dashboard can pay the whole grid once at startup and serve every
  ///   subsequent evaluate() from cache.
  ///
  ///   The uncached points run through the unit scheduler Study::run()
  ///   uses, so analytic wavefront points share one batch-solver plan —
  ///   machine backends and app terms resolve once per unique value — and
  ///   the cached Results are bit-identical to what a cold evaluate() of
  ///   the same query would store (the batch solver's correctness
  ///   contract). Already-cached points are skipped.
  ///
  /// @return The number of scenarios newly added to the cache.
  Expected<std::size_t> warm(const Study& study);

  /// @brief The canonical scenario key `query` caches under — the full
  ///   resolved identity (machine config text included, so two catalogs
  ///   mapping one name to different machines never alias). Exposed for
  ///   diagnostics and tests.
  std::string canonical_key(const Query& query) const;

  /// @brief Cache counters, aggregated over every shard. The snapshot is
  ///   consistent: all shard locks are held while it is taken, so the
  ///   cross-shard invariants hold in every snapshot even under concurrent
  ///   load (`size <= misses + imported`, and after quiescence
  ///   `hits + misses + errors == evaluate() calls`).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< evaluations performed (cachable ones)
    std::uint64_t errors = 0;    ///< failed queries (never cached)
    std::uint64_t resets = 0;    ///< capacity-triggered generation resets
    std::uint64_t imported = 0;  ///< entries restored via import_cache()
    std::size_t size = 0;        ///< scenarios currently cached
    std::size_t capacity = 0;    ///< total across shards
    std::size_t shards = 0;
  };
  Stats stats() const;

  /// @brief A consistent snapshot of the service's metrics registry:
  ///   per-shard hit/miss latency histograms
  ///   (`service_shard<k>_{hit,miss}_latency_us`), recorded around every
  ///   evaluate() in wall-clock microseconds. Purely observational — the
  ///   histograms never affect results or cache identity.
  MetricsSnapshot metrics() const;

  // ---- snapshot hooks (src/serve/snapshot.* builds on these) -----------

  /// @brief One cached scenario: the canonical key text and its Result.
  struct CacheEntry {
    std::string key;
    Result result;
  };

  /// @brief A consistent copy of every cached entry (all shard locks held),
  ///   in a deterministic order (sorted by key). The serve layer's
  ///   crash-safe snapshots serialize exactly this.
  std::vector<CacheEntry> export_cache() const;

  /// @brief Restores previously exported entries. Keys already cached are
  ///   skipped (the live entry wins); restored entries serve subsequent
  ///   hits bit-identical to the Results that were exported. Counted in
  ///   Stats::imported, not Stats::misses.
  /// @return The number of entries actually added.
  std::size_t import_cache(const std::vector<CacheEntry>& entries);

  /// @brief Drops every cached scenario (counters other than size keep
  ///   their values).
  void clear();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wave
