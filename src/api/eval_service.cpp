#include "wave/eval_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/api_internal.h"
#include "core/machine.h"
#include "obs/metrics.h"
#include "runner/batch_runner.h"
#include "wave/context.h"
#include "wave/study.h"

namespace wave {

namespace {

/// Exact decimal round-trip for key fields: two doubles map to one key
/// text iff they are the same value.
std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The canonical scenario identity: every field that can change the
/// result — the base query's app fields, the validate flag, and the
/// resolved scenario including the fully-serialized machine config (so
/// two catalogs mapping one name onto different machines never alias).
std::string key_text(const Query& base, bool validate,
                     const runner::Scenario& scenario) {
  std::string key = "wave-scenario/2\n";
  key += "workload=" + scenario.workload + "\n";
  key += "engine=" + to_string(api::from_runner_engine(scenario.engine)) +
         "\n";
  key += std::string("validate=") + (validate ? "1" : "0") + "\n";
  key += "grid=" + std::to_string(scenario.grid.n()) + "x" +
         std::to_string(scenario.grid.m()) + "\n";
  key += "iterations=" + std::to_string(scenario.iterations) + "\n";
  key += "comm_override=" + scenario.comm_model + "\n";
  key += "app=" + base.app_preset() + "\n";
  key += "wg=" + exact(base.wg_override()) + "\n";
  key += "problem=" + exact(base.problem_nx()) + "," +
         exact(base.problem_ny()) + "," + exact(base.problem_nz()) + "\n";
  for (const auto& [name, value] : scenario.params)  // std::map: sorted
    key += "param." + name + "=" + exact(value) + "\n";
  key += "machine:\n" + core::write_machine_config(scenario.machine);
  return key;
}

}  // namespace

struct EvalService::Impl {
  /// One cache shard: its own mutex, map and counters. Concurrent
  /// operations on distinct shards never touch a shared cache line, so
  /// hit throughput scales with cores (the serve layer's point).
  struct Shard {
    mutable std::mutex mutex;
    /// Canonical key text -> the first evaluation's Result.
    std::unordered_map<std::string, Result> cache;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t resets = 0;
    std::uint64_t imported = 0;

    const Result* find_locked(const std::string& key) const {
      const auto it = cache.find(key);
      return it == cache.end() ? nullptr : &it->second;
    }

    void store_locked(const std::string& key, const Result& result) {
      if (cache.size() >= capacity) {
        // Generation reset: the simple capacity bound (see eval_service.h).
        cache.clear();
        ++resets;
      }
      cache.emplace(key, result);
    }
  };

  explicit Impl(std::size_t shard_count) : shards(shard_count) {
    hit_latency.reserve(shard_count);
    miss_latency.reserve(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
      const std::string prefix = "service_shard" + std::to_string(k);
      hit_latency.push_back(&registry.histogram(prefix + "_hit_latency_us"));
      miss_latency.push_back(&registry.histogram(prefix + "_miss_latency_us"));
    }
  }

  const Context* ctx;
  Options options;
  std::vector<Shard> shards;
  /// Resolution failures have no canonical key and therefore no shard.
  std::atomic<std::uint64_t> errors{0};
  /// Per-shard evaluate() latency histograms (hit vs miss path), resolved
  /// once at construction so the hot path is a wait-free observe().
  obs::MetricsRegistry registry;
  std::vector<obs::Histogram*> hit_latency;
  std::vector<obs::Histogram*> miss_latency;

  std::size_t shard_index(const std::string& key) const {
    return std::hash<std::string>{}(key) % shards.size();
  }

  /// Locks every shard, in index order (the one total order, so two
  /// whole-cache operations can never deadlock against each other).
  std::vector<std::unique_lock<std::mutex>> lock_all() const {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards.size());
    for (const Shard& shard : shards)
      locks.emplace_back(shard.mutex);
    return locks;
  }
};

EvalService::EvalService(const Context& ctx, Options options)
    : impl_(std::make_unique<Impl>(options.shards == 0 ? 1 : options.shards)) {
  impl_->ctx = &ctx;
  impl_->options = options;
  if (impl_->options.capacity == 0) impl_->options.capacity = 1;
  impl_->options.shards = impl_->shards.size();
  // Capacity divides evenly across shards; every shard holds at least one
  // entry so a tiny capacity with many shards still caches something.
  const std::size_t per_shard = std::max<std::size_t>(
      1, impl_->options.capacity / impl_->shards.size());
  for (Impl::Shard& shard : impl_->shards) shard.capacity = per_shard;
}

EvalService::~EvalService() = default;
EvalService::EvalService(EvalService&&) noexcept = default;
EvalService& EvalService::operator=(EvalService&&) noexcept = default;

std::string EvalService::canonical_key(const Query& query) const {
  try {
    return key_text(query, query.validate_requested(),
                    api::scenario_from(*impl_->ctx, query));
  } catch (const std::exception& e) {
    // Unresolvable queries have no cache identity; return a diagnostic
    // text (never stored — evaluate() fails before caching).
    return std::string("unresolvable: ") + e.what();
  }
}

Expected<Result> EvalService::evaluate(const Query& query) {
  // The latency histograms cover the whole call: resolution and key
  // construction are most of a hit's cost.
  const auto t0 = std::chrono::steady_clock::now();
  runner::Scenario scenario;
  try {
    scenario = api::scenario_from(*impl_->ctx, query);
  } catch (const std::exception& e) {
    impl_->errors.fetch_add(1, std::memory_order_relaxed);
    return api::to_status(e);
  }
  const std::string key =
      key_text(query, query.validate_requested(), scenario);
  const std::size_t shard_idx = impl_->shard_index(key);
  Impl::Shard& shard = impl_->shards[shard_idx];
  const auto elapsed_us = [&t0] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const Result* cached = shard.find_locked(key)) {
      ++shard.hits;
      Result out = *cached;
      impl_->hit_latency[shard_idx]->observe(elapsed_us());
      return out;
    }
  }

  // Evaluate outside the lock: a DES point can take seconds, and
  // concurrent distinct queries must not serialize behind it. Two threads
  // racing on the same key both evaluate; the pipeline is deterministic,
  // so both compute the identical Result and the first store wins.
  Result result;
  try {
    result = api::result_from(*impl_->ctx, query, scenario);
  } catch (const std::exception& e) {
    impl_->errors.fetch_add(1, std::memory_order_relaxed);
    return api::to_status(e);
  }

  const std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;
  impl_->miss_latency[shard_idx]->observe(elapsed_us());
  if (const Result* cached = shard.find_locked(key))
    return *cached;  // lost the race; the stored copy is authoritative
  shard.store_locked(key, result);
  return result;
}

MetricsSnapshot EvalService::metrics() const { return impl_->registry.snapshot(); }

Expected<std::size_t> EvalService::warm(const Study& study) {
  const Context& ctx = *impl_->ctx;
  try {
    // Resolve every axis first: a bad axis value fails the whole warm
    // before anything is evaluated or cached. Points are built by index,
    // in Study::run()'s order, into one reused scenario; each is the
    // scenario its Query resolves to.
    const runner::SweepGrid grid = study.sweep_grid(ctx);

    // Keep the scenarios not cached yet, once each.
    struct Pending {
      const std::string* key;  // into `keys`: set nodes never move
      Impl::Shard* shard;
    };
    std::unordered_set<std::string> keys;
    std::vector<Pending> pending;
    std::vector<runner::Scenario> fresh;
    runner::Scenario point;
    for (std::size_t index = 0; index < grid.cartesian_size(); ++index) {
      grid.build_point(index, point);
      const auto [it, inserted] =
          keys.insert(key_text(study.base_, study.validate_, point));
      if (!inserted) continue;
      Impl::Shard& shard = impl_->shards[impl_->shard_index(*it)];
      {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.find_locked(*it) != nullptr) continue;
      }
      pending.push_back({&*it, &shard});
      fresh.push_back(point);
    }

    // Evaluate outside the lock (DES points can take seconds) on one
    // thread through BatchRunner's unit scheduler, the one Study::run
    // uses; its records are byte-identical with evaluate_scenario's, so
    // the Results are bit-identical with a cold evaluate(). Then store
    // each under its shard's lock.
    const runner::BatchRunner batch(ctx, runner::BatchRunner::Options(1));
    std::vector<runner::RunRecord> records =
        study.validate_
            ? batch.run(fresh,
                        [&ctx](const runner::Scenario& s) {
                          return runner::workload_model_vs_sim_metrics(ctx, s);
                        })
            : batch.run(fresh);
    std::size_t added = 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const Result result = api::result_from_terms(
          study.validate_, fresh[k], std::move(records[k].metrics));
      Impl::Shard& shard = *pending[k].shard;
      const std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.find_locked(*pending[k].key) != nullptr)
        continue;  // a concurrent evaluate() won the race
      ++shard.misses;
      shard.store_locked(*pending[k].key, result);
      ++added;
    }
    return added;
  } catch (const std::exception& e) {
    impl_->errors.fetch_add(1, std::memory_order_relaxed);
    return api::to_status(e);
  }
}

EvalService::Stats EvalService::stats() const {
  const auto locks = impl_->lock_all();
  Stats out;
  for (const Impl::Shard& shard : impl_->shards) {
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.resets += shard.resets;
    out.imported += shard.imported;
    out.size += shard.cache.size();
    out.capacity += shard.capacity;
  }
  out.errors = impl_->errors.load(std::memory_order_relaxed);
  out.shards = impl_->shards.size();
  return out;
}

std::vector<EvalService::CacheEntry> EvalService::export_cache() const {
  const auto locks = impl_->lock_all();
  std::vector<CacheEntry> out;
  for (const Impl::Shard& shard : impl_->shards)
    for (const auto& [key, result] : shard.cache)
      out.push_back(CacheEntry{key, result});
  // Deterministic order regardless of insertion history and shard count,
  // so two snapshots of the same cache content are byte-identical.
  std::sort(out.begin(), out.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              return a.key < b.key;
            });
  return out;
}

std::size_t EvalService::import_cache(const std::vector<CacheEntry>& entries) {
  std::size_t added = 0;
  for (const CacheEntry& entry : entries) {
    Impl::Shard& shard = impl_->shards[impl_->shard_index(entry.key)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.find_locked(entry.key) != nullptr) continue;
    shard.store_locked(entry.key, entry.result);
    ++shard.imported;
    ++added;
  }
  return added;
}

void EvalService::clear() {
  const auto locks = impl_->lock_all();
  for (Impl::Shard& shard : impl_->shards) shard.cache.clear();
}

}  // namespace wave
