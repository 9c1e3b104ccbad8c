// Optional observability hooks a simulation run reports into.
//
// Self-contained (no sim/ dependencies; obs/ types appear only as forward
// declarations) so workload- and runner-layer headers can embed it without
// pulling the engine in.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace wave::obs {
class MetricsRegistry;
class SpanCapture;
}  // namespace wave::obs

namespace wave::sim {

/// One executed event in a captured trace: the exact simulated time and
/// the global FIFO sequence number the run loop dispatched. Two engines
/// that execute the same (time, seq) stream made identical scheduling
/// decisions — this is the determinism contract made checkable.
struct TraceEvent {
  common::usec time;
  std::uint64_t seq;
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Non-owning, strictly inert hooks: the run publishes engine counters
/// into `metrics` after it finishes, records per-rank spans into `trace`
/// and appends every executed event to `events` (Engine::set_trace with
/// its default cap) as it goes, but none of them ever changes an event
/// order or a simulated result (the instrumentation contract,
/// docs/OBSERVABILITY.md). All must outlive the World.
struct Observers {
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanCapture* trace = nullptr;
  std::vector<TraceEvent>* events = nullptr;
};

}  // namespace wave::sim
