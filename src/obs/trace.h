// Structured execution-timeline tracing: per-rank compute/send/recv/wait
// spans in *simulated* time, written as Chrome trace-event JSON
// (chrome://tracing, https://ui.perfetto.dev).
//
// Capture model: a SpanCapture owns one single-writer SpanBuffer, filled
// by the one simulation that claimed it, so recording never synchronizes.
// The buffer is bounded: past the cap spans are dropped and the capture is
// marked truncated, so a P=4096 trace degrades loudly instead of
// exhausting memory. A capture
// attaches to exactly one World per reset (try_claim), because a threaded
// sweep may run many simulations concurrently and interleaved timelines
// from different scenarios would be meaningless.
//
// Like the metrics core, tracing is inert: the hot path is one
// `if (tracer_)` test when detached, and a bounds-checked push_back of a
// 40-byte POD when attached — simulated timestamps come from the engine
// clock the simulation already maintains, never from wall clocks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace wave::obs {

/// @brief One timed interval of a rank's life, in simulated microseconds.
struct Span {
  enum class Kind : std::uint8_t {
    kCompute,   ///< RankCtx::compute busy time
    kSend,      ///< blocking send (post to completion)
    kRecv,      ///< blocking receive (post to delivery)
    kWait,      ///< MPI_Wait on an outstanding isend/irecv request
    kExchange,  ///< paired bidirectional exchange / halo exchange
  };

  Kind kind = Kind::kCompute;
  std::int32_t rank = 0;  ///< the rank whose timeline this span belongs to
  std::int32_t peer = -1; ///< communication partner; -1 for compute
  double bytes = 0.0;     ///< message payload; 0 for compute/wait
  double begin_us = 0.0;  ///< simulated start time
  double end_us = 0.0;    ///< simulated end time (>= begin_us)
};

/// @brief "compute" / "send" / ... — the trace-event `name` vocabulary.
const char* to_string(Span::Kind kind);

/// @brief A bounded, single-writer span log (the simulation's thread is
///   the only writer while it runs).
class SpanBuffer {
 public:
  /// 1M spans (~40 MB) by default — ample for every shipped scenario,
  /// bounded for pathological ones.
  static constexpr std::size_t kDefaultCap = 1u << 20;

  explicit SpanBuffer(std::size_t cap = kDefaultCap) : cap_(cap) {}

  void record(const Span& span) {
    if (spans_.size() < cap_) {
      spans_.push_back(span);
    } else {
      truncated_ = true;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  bool truncated() const { return truncated_; }
  std::size_t capacity() const { return cap_; }

  void clear() {
    spans_.clear();
    truncated_ = false;
  }

 private:
  std::vector<Span> spans_;
  std::size_t cap_;
  bool truncated_ = false;
};

/// @brief A whole-simulation capture: one span buffer plus the claim
///   token that binds it to one World at a time.
class SpanCapture {
 public:
  explicit SpanCapture(std::size_t cap = SpanBuffer::kDefaultCap)
      : buffer_(cap) {}

  /// First claimant wins; a capture riding a threaded sweep traces the
  /// first simulation that reaches it and leaves the rest untraced (the
  /// drivers trace a single re-run instead, see runner::write_trace_out).
  bool try_claim() {
    bool expected = false;
    return claimed_.compare_exchange_strong(expected, true);
  }

  /// Drops previous spans. Called by the claiming World before its run;
  /// not thread-safe against concurrent record() (the claim token
  /// serializes captures).
  void reset() { buffer_.clear(); }

  SpanBuffer& buffer() { return buffer_; }
  const SpanBuffer& buffer() const { return buffer_; }

  bool claimed() const { return claimed_.load(); }
  bool truncated() const { return buffer_.truncated(); }
  std::size_t total_spans() const { return buffer_.spans().size(); }

 private:
  SpanBuffer buffer_;
  std::atomic<bool> claimed_{false};
};

/// @brief Writes the capture as Chrome trace-event JSON: one complete
///   ("ph":"X") event per span, pid 0, tid = rank, ts/dur
///   in (simulated) microseconds, args carrying peer and bytes. A
///   truncated capture gets a final metadata event saying so — the file
///   never lies silently about coverage.
void write_chrome_trace(std::ostream& out, const SpanCapture& capture);

}  // namespace wave::obs
