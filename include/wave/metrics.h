// Observability snapshot types of the `wave::` facade.
//
// Every instrumented subsystem (the DES engine, the batch runner, the
// EvalService cache, the wave-serve daemon) reports through a registry
// of named counters, gauges and log2-bucket histograms (src/obs/). This
// header carries the *snapshot* of such a registry across the facade
// boundary: a plain, copyable value listing every metric by name, plus
// renderers to Prometheus-style exposition text and JSON.
//
// The observability contract (docs/OBSERVABILITY.md): metrics are strictly
// inert — attaching or detaching a registry never changes a simulation
// result, an event order, or a cached Result by a single bit. Snapshots
// are consistent per metric (each value is read atomically) and sorted by
// name, so two snapshots of identical registry state render byte-identical
// text.
//
// This header is self-contained: it depends only on the C++ standard
// library.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wave {

/// @brief A point-in-time copy of every metric in a registry, sorted by
///   name within each kind.
struct MetricsSnapshot {
  /// @brief A monotonically increasing event count.
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };

  /// @brief An instantaneous level (queue depth, high-water mark, ...).
  struct Gauge {
    std::string name;
    std::int64_t value = 0;
  };

  /// @brief A fixed-layout log2 histogram: bucket i counts observations in
  ///   [2^(i-1), 2^i) (bucket 0 takes everything below 1). The snapshot
  ///   carries only non-empty buckets as (upper_bound, count) pairs in
  ///   ascending bucket order, plus bucket-resolution p50/p99 estimates
  ///   (the upper bound of the bucket holding that rank — exact math for
  ///   raw samples lives in common::percentiles).
  struct Histogram {
    std::string name;
    std::uint64_t count = 0;  ///< total observations
    double sum = 0.0;         ///< sum of observed values
    double p50 = 0.0;         ///< upper bound of the median's bucket
    double p99 = 0.0;         ///< upper bound of the 99th percentile's bucket
    /// (bucket upper bound, observations in that bucket), non-cumulative.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// @brief Renders the snapshot as Prometheus-style text exposition:
///   `# TYPE` comment lines, histogram `_bucket{le="..."}` series with
///   cumulative counts ending in `+Inf`, `_sum` and `_count`. Deterministic
///   (sorted by name) and newline-terminated per line.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// @brief Renders the snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},"histograms":{name:{"count":...,
///   "sum":...,"p50":...,"p99":...,"buckets":[[le,count],...]}}}.
std::string to_json(const MetricsSnapshot& snapshot);

}  // namespace wave
