#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "common/statistics.h"
#include "serve/json.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// ---- tracing ---------------------------------------------------------------

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::add(std::string name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t parent,
                 std::uint64_t request) {
  close(next_id(), std::move(name), start, end, parent, request);
}

void Tracer::close(std::uint64_t id, std::string name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t parent,
                   std::uint64_t request) {
  Span span{std::move(name), id, parent, request,
            micros_between(origin_, start), micros_between(origin_, end)};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.duration_us());
  return out;
}

void Tracer::write_chrome(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    std::string line = first ? "\n" : ",\n";
    first = false;
    line += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    line += std::to_string(s.request);
    line += ",\"name\":";
    wave::serve::append_json_string(line, s.name);
    line += ",\"ts\":";
    wave::serve::append_json_number(line, s.start_us);
    line += ",\"dur\":";
    wave::serve::append_json_number(line, s.duration_us());
    line += ",\"args\":{\"id\":" + std::to_string(s.id) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"request\":" + std::to_string(s.request) + "}}";
    out << line;
  }
  out << "\n]}\n";
}

Scope::Scope(Tracer* tracer, std::string_view name, std::uint64_t parent,
             std::uint64_t request)
    : tracer_(tracer), parent_(parent), request_(request) {
  if (tracer_ == nullptr) return;
  name_ = name;
  id_ = tracer_->next_id();
  start_ = Clock::now();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_, std::move(name_), start_, Clock::now(), parent_,
                 request_);
}

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> xs, unsigned pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[wave::common::percentile_rank(xs.size(), pct)];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

long Rounds::round_of(Clock::time_point at) const {
  return static_cast<long>(std::floor(
      std::chrono::duration<double>(at - start_).count() / kRoundSeconds));
}

void Rounds::latency(Clock::time_point at, double us) {
  const long round = round_of(at);
  if (round > open_) {
    close_round();
    open_ = round;
  }
  samples_.push_back(us);
}

void Rounds::work(Clock::time_point at, double units, double busy_s) {
  const long round = round_of(at);
  if (work_.empty() || work_.back().round != round)
    work_.push_back({round, 0.0, 0.0});
  work_.back().units += units;
  work_.back().busy_s += busy_s;
}

void Rounds::close_round() {
  if (samples_.empty()) return;
  const unsigned tail = samples_.size() >= 1000 ? 99 : 90;
  closed_.push_back({samples_.size(), percentile(samples_, 50),
                     percentile(samples_, tail)});
  samples_.clear();  // keeps the capacity for the next round
}

Rounds::Best Rounds::best() {
  close_round();
  Best out;
  std::size_t fullest = 0;
  for (const Closed& r : closed_) fullest = std::max(fullest, r.count);
  bool first = true;
  for (const Closed& r : closed_) {
    if (2 * r.count < fullest) continue;
    out.p50_us = first ? r.p50_us : std::min(out.p50_us, r.p50_us);
    out.tail_us = first ? r.tail_us : std::min(out.tail_us, r.tail_us);
    first = false;
  }
  double busiest = 0.0;
  for (const Work& w : work_) busiest = std::max(busiest, w.busy_s);
  for (const Work& w : work_)
    if (2 * w.busy_s >= busiest && w.busy_s > 0.0)
      out.per_s = std::max(out.per_s, w.units / w.busy_s);
  return out;
}

// ---- the result line ---------------------------------------------------------

namespace {

bool all_of_set(std::string_view text, std::string_view extra) {
  return std::all_of(text.begin(), text.end(), [extra](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) ||
           extra.find(c) != std::string_view::npos;
  });
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  return !name.empty() && name.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(name.front())) &&
         all_of_set(name, "_.-");
}

bool valid_unit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && all_of_set(unit, "_/%.-");
}

std::string render_outcome(const Outcome& outcome) {
  using wave::serve::append_json_number;
  using wave::serve::append_json_string;
  std::string out = "{\"correct\":";
  out += outcome.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(outcome.attempted);
  out += ",\"failed\":" + std::to_string(outcome.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) out += ',';
    append_json_string(out, m.name);
    out += ":{\"value\":";
    append_json_number(out, m.value);
    out += ",\"unit\":";
    append_json_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
