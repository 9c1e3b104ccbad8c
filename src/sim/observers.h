// Optional observability hooks a simulation run reports into.
//
// Self-contained (no sim/ dependencies; obs/ types appear only as forward
// declarations) so workload- and runner-layer headers can embed it without
// pulling the engine in.
#pragma once

namespace wave::obs {
class MetricsRegistry;
class SpanCapture;
}  // namespace wave::obs

namespace wave::sim {

/// Non-owning, strictly inert hooks: the run publishes engine counters
/// into `metrics` after it finishes and records per-rank spans into
/// `trace` as it goes, but neither ever changes an event order or a
/// simulated result (the instrumentation contract, docs/OBSERVABILITY.md).
/// Both must outlive the World.
struct Observers {
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanCapture* trace = nullptr;
};

}  // namespace wave::sim
