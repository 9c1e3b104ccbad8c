// The benchmark's own plumbing: clocks, an in-memory span tracer, sample
// statistics and the result line. (The bound checker is spread.py.)
//
// Nothing here measures the wave library itself; workloads.cpp and
// layers.cpp call into the library and use these helpers to time, trace
// and report what they see.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double micros_between(Clock::time_point from, Clock::time_point to);

// ---- tracing ---------------------------------------------------------------

/// One closed span: a named interval at a layer boundary. `parent` is the
/// id of the enclosing span (0 at the root) and `request` groups the spans
/// of one request (0 when the span belongs to no request).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  double start_us = 0.0;  ///< since the tracer was created
  double end_us = 0.0;
  double duration_us() const { return end_us - start_us; }
};

/// Collects spans in memory; write_chrome() emits them when the run ends.
/// Safe to record from several threads.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records an already-timed interval.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t parent = 0, std::uint64_t request = 0);

  /// Durations (µs) of every span called `name`, in record order.
  std::vector<double> durations_us(std::string_view name) const;

  /// Chrome trace-event JSON ("X" events; parent and request in args).
  void write_chrome(std::ostream& out) const;

 private:
  friend class Scope;
  /// Reserves an id for a span that is still open (see Scope).
  std::uint64_t next_id();
  void close(std::uint64_t id, std::string name, Clock::time_point start,
             Clock::time_point end, std::uint64_t parent,
             std::uint64_t request);

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// A span open for the lifetime of the object. With a null tracer it does
/// nothing and reads no clock, so untraced runs pay one branch.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint64_t parent = 0,
        std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Id to pass as the parent of nested spans (0 when untraced).
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

// ---- statistics ------------------------------------------------------------

/// Percentile by the repository's nearest-rank-floor convention
/// (common::percentile_rank); sorts `xs`. Empty input yields 0.
double percentile(std::vector<double> xs, unsigned pct);
double median(std::vector<double> xs);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// A run's samples grouped into rounds: five-second slices of the run by
/// the time each operation started (an operation longer than that makes a
/// round of its own). The 4-core VM this benchmark was tuned on switches
/// between CPU speeds ~1.5x apart for seconds to minutes at a time, which
/// moves a whole-run median by up to 50%; the best round moves less.
/// So a run reports its best full round, where "full" means holding at
/// least half as many samples as the fullest round. Samples must arrive in
/// round order; only the open round's samples are kept, so the harness's
/// memory does not grow with the sample count.
class Rounds {
 public:
  static constexpr double kRoundSeconds = 5.0;

  explicit Rounds(Clock::time_point start) : start_(start) {}

  /// The latency of an operation that started at `at`.
  void latency(Clock::time_point at, double us);
  /// `units` of work done in `busy_s` seconds by an operation that
  /// started at `at`.
  void work(Clock::time_point at, double units, double busy_s);

  struct Best {
    double p50_us = 0.0;   ///< lowest round median
    double tail_us = 0.0;  ///< lowest round p99 (p90 under 1,000 samples)
    double per_s = 0.0;    ///< highest round throughput
  };
  Best best();

 private:
  struct Closed {
    std::size_t count;
    double p50_us, tail_us;
  };
  struct Work {
    long round;
    double units, busy_s;
  };
  long round_of(Clock::time_point at) const;
  void close_round();

  Clock::time_point start_;
  long open_ = 0;
  std::vector<double> samples_;  // the open round's latencies (µs)
  std::vector<Closed> closed_;
  std::vector<Work> work_;  // per round, in round order
};

// ---- the result line ---------------------------------------------------------

/// Metric names: a letter or digit first, then letters, digits, '_', '.',
/// '-'; at most 64 characters.
bool valid_metric_name(std::string_view name);
/// Units: at most 16 of letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked output; a mismatch marks the run incorrect and,
  /// for the first few, names the check on standard error.
  void check(bool ok, const char* what = "output") {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::fprintf(stderr, "check failed: %s\n", what);
    correct = false;
  }
};

/// The one-line JSON object the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,
/// "unit":..},..}}. Numbers keep all their digits (%.17g).
std::string render_outcome(const Outcome& outcome);

}  // namespace perfbench
