#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "common/statistics.h"

namespace wave::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.push_back({name, c->value()});
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.push_back({name, g->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Histogram snap;
    snap.name = name;
    snap.count = h->count();
    snap.sum = h->sum();
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n != 0) snap.buckets.emplace_back(Histogram::bucket_bound(i), n);
    }
    // Bucket-resolution percentiles: the upper bound of the bucket holding
    // the nearest-rank-floor index (common::percentile_rank, the same
    // convention as the exact-sample path in common::percentiles).
    if (snap.count > 0) {
      const std::uint64_t rank50 = common::percentile_rank(snap.count, 50);
      const std::uint64_t rank99 = common::percentile_rank(snap.count, 99);
      std::uint64_t seen = 0;
      for (const auto& [bound, n] : snap.buckets) {
        if (snap.p50 == 0.0 && seen + n > rank50) snap.p50 = bound;
        if (seen + n > rank99) {
          snap.p99 = bound;
          break;
        }
        seen += n;
      }
    }
    out.histograms.push_back(std::move(snap));
  }
  return out;
}

}  // namespace wave::obs

namespace wave {

namespace {

/// %.17g — the repo-wide exact-double format (round-trips bits).
void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

/// Histogram bucket bounds are 1.0 or exact powers of two: render them as
/// plain integers up to 2^53 (exact in double) so `le` labels read
/// naturally ("1024", not "1.024e+03").
void append_bound(std::string& out, double bound) {
  if (bound >= 1.0 && bound <= 9007199254740992.0) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%.0f", bound);
    out += buf;
  } else {
    append_double(out, bound);
  }
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricsSnapshot::Counter& c : snapshot.counters) {
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const MetricsSnapshot::Gauge& g : snapshot.gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + std::to_string(g.value) + "\n";
  }
  for (const MetricsSnapshot::Histogram& h : snapshot.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [bound, n] : h.buckets) {
      cumulative += n;
      out += h.name + "_bucket{le=\"";
      append_bound(out, bound);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += h.name + "_sum ";
    append_double(out, h.sum);
    out += "\n" + h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  // Metric names come from the registry's own catalog (snake_case ASCII),
  // so quoting without escape handling is safe here.
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const MetricsSnapshot::Counter& c : snapshot.counters) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + c.name + "\":" + std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricsSnapshot::Gauge& g : snapshot.gauges) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + g.name + "\":" + std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricsSnapshot::Histogram& h : snapshot.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + h.name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":";
    append_double(out, h.sum);
    out += ",\"p50\":";
    append_double(out, h.p50);
    out += ",\"p99\":";
    append_double(out, h.p99);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [bound, n] : h.buckets) {
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out.push_back('[');
      append_bound(out, bound);
      out.push_back(',');
      out += std::to_string(n);  // not `"," + ...`: a false GCC 12 -Wrestrict
      out.push_back(']');
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace wave
