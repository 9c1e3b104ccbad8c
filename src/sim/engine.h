// Discrete-event simulation engine.
//
// A minimal, deterministic event calendar: callbacks scheduled at absolute
// or relative simulated times, executed in (time, insertion order). All
// times are µs of simulated time, matching the LogGP models.
//
// Each Engine instance is single-threaded by design — determinism is a
// requirement (every validation bench must be exactly reproducible).
// set_trace() records the executed (time, seq) stream so tests can prove
// two schedules identical.
//
// Steady-state scheduling is allocation-free and O(log pending) per event:
// callbacks are InlineTask (fixed inline storage, task.h) kept in a slab
// of recycled slots, and the pending set is a binary heap
// (std::push_heap/pop_heap) of 16-byte integer keys that name their slab
// slot, so heap sifts move keys, never tasks (docs/PERFORMANCE.md has the
// measurements).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "common/units.h"
#include "sim/observers.h"
#include "sim/task.h"

namespace wave::sim {

using common::usec;

/// Event calendar and simulated clock.
class Engine {
 public:
  // Simulations with any concurrency immediately outgrow tiny geometric
  // doublings, so the heap starts with a useful capacity. Beyond that the
  // heap and the task slab grow on demand to the run's peak of pending
  // events, which for a wavefront is about 1.5 per rank
  // (docs/PERFORMANCE.md, "DES memory per rank").
  Engine() { heap_.reserve(256); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (µs).
  usec now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `time` (>= now()). The
  /// callback is moved into a recycled slab slot — captured state is never
  /// copied, and in steady state never allocated, on the hot path.
  /// (Defined inline below so callers construct the task straight into
  /// its slab slot.)
  void at(usec time, InlineTask fn);

  /// Schedules `fn` `delay` µs from now (delay >= 0).
  void after(usec delay, InlineTask fn);

  /// Runs events until the calendar drains. Returns the final clock value.
  usec run();

  /// Number of events executed so far (performance metric).
  std::uint64_t events_processed() const { return processed_; }

  /// High-water mark of pending events (peak calendar occupancy).
  std::size_t max_pending() const { return max_pending_; }

  /// Default set_trace() cap: 4M events (64 MB of TraceEvents) — ample for
  /// every shipped trace-equality test, bounded for a P=4096 run that
  /// would otherwise grow the sink without limit.
  static constexpr std::size_t kDefaultTraceCap = std::size_t{1} << 22;

  /// Installs (or, with nullptr, removes) a trace sink: every executed
  /// event appends its (time, seq) to `sink`, up to `cap` events — past
  /// the cap events are dropped, trace_truncated() turns true and a loud
  /// one-time marker lands on stderr (a silently partial trace would fake
  /// a schedule divergence). Test-mode only — the hot path keeps a single
  /// predictable branch when no sink is installed.
  void set_trace(std::vector<TraceEvent>* sink,
                 std::size_t cap = kDefaultTraceCap) {
    trace_ = sink;
    trace_cap_ = cap;
    trace_truncated_ = false;
  }

  /// True once set_trace() capture dropped events at the cap.
  bool trace_truncated() const { return trace_truncated_; }

 private:
  // One pending event: 16 bytes, totally ordered by a single 128-bit
  // integer compare. The high 64 bits are the event time's IEEE-754
  // pattern — non-negative doubles order identically to their bit patterns
  // as unsigned integers, and simulated time never goes negative (at()
  // rejects t < now, now starts at 0; +0.0 normalizes a -0.0 input). The
  // low 64 bits pack the FIFO tie-break sequence number (high 40 bits)
  // over the task-slab slot (low 24 bits): equal-time events order by
  // sequence, and the slot rides along for free. 2^24 bounds *pending*
  // events (not total), 2^40 bounds events ever scheduled — both checked
  // where they could overflow.
  using Entry = unsigned __int128;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;

  static Entry pack(usec time, std::uint64_t key) {
    // + 0.0 turns a -0.0 input into +0.0 so the bit pattern orders right.
    return static_cast<Entry>(std::bit_cast<std::uint64_t>(time + 0.0))
               << 64 |
           key;
  }
  static usec entry_time(Entry e) {
    return std::bit_cast<usec>(static_cast<std::uint64_t>(e >> 64));
  }
  static std::uint32_t entry_slot(Entry e) {
    return static_cast<std::uint32_t>(e) & (kMaxSlots - 1);
  }
  static std::uint64_t entry_seq(Entry e) {
    return static_cast<std::uint64_t>(e) >> kSlotBits;
  }

  /// Cold path of at(): adds a task chunk; returns the first fresh slot.
  std::uint32_t grow_task_slab();
  /// Removes and returns the earliest pending entry (heap must be non-empty).
  Entry pop_min();
  /// Advances the clock to `e` and runs its task in place.
  void execute(Entry e);

  /// The task slab: chunked so addresses are stable while a task runs —
  /// the run loop invokes tasks in place (no per-event move) and recycles
  /// the slot only after the callback returns.
  static constexpr std::size_t kTaskChunkShift = 9;
  static constexpr std::size_t kTaskChunkSize = std::size_t{1}
                                               << kTaskChunkShift;
  InlineTask& task(std::uint32_t slot) {
    return task_chunks_[slot >> kTaskChunkShift]
                       [slot & (kTaskChunkSize - 1)];
  }

  // The pending set: a min-heap (std::greater) of entries, so heap_[0] is
  // the exact (time, seq) minimum. The InlineTask callables live in a slab
  // indexed by recycled slot ids; heap operations never move a task.
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<InlineTask[]>> task_chunks_;
  std::size_t task_slots_ = 0;  // slots ever created (chunks * chunk size)
  std::vector<std::uint32_t> free_slots_;
  usec now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t max_pending_ = 0;
  std::vector<TraceEvent>* trace_ = nullptr;
  std::size_t trace_cap_ = kDefaultTraceCap;
  bool trace_truncated_ = false;

  /// Cold path of record(): flags truncation and prints the one-time
  /// stderr marker (out of line so the header stays <cstdio>-free).
  void note_trace_truncated();
  void record(Entry e) {
    if (trace_ == nullptr) return;
    if (trace_->size() >= trace_cap_) {
      if (!trace_truncated_) note_trace_truncated();
      return;
    }
    trace_->push_back({entry_time(e), entry_seq(e)});
  }
};

// ---- inline hot path --------------------------------------------------------
// at() is inline so call sites (the MPI protocol above all else) construct
// each InlineTask directly into its slab slot and the whole schedule path
// compiles into the caller — no per-event indirect relocation.

[[gnu::always_inline]] inline void Engine::at(usec time, InlineTask fn) {
  WAVE_EXPECTS_MSG(time >= now_, "cannot schedule events in the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = grow_task_slab();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  task(slot) = std::move(fn);
  WAVE_EXPECTS_MSG(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)),
                   "event sequence number overflow");
  heap_.push_back(pack(time, next_seq_++ << kSlotBits | slot));
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  max_pending_ = std::max(max_pending_, heap_.size());
}

inline void Engine::after(usec delay, InlineTask fn) {
  WAVE_EXPECTS_MSG(delay >= 0.0, "delay must be non-negative");
  at(now_ + delay, std::move(fn));
}

}  // namespace wave::sim
