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
// Steady-state scheduling is allocation-free: each callback is a Task — a
// function pointer plus a trivially copyable capture of at most 24 bytes,
// held inline — written straight into a slab of recycled slots, and the
// pending set is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990)
// over the 64 bits of each event's time: 65 FIFO buckets of 16-byte
// integer keys that name their slab slot, so the calendar moves keys,
// never tasks, and equal times keep schedule order with no seq compare
// (docs/PERFORMANCE.md has the measurements). A callable that does not
// fit — one that owns state, such as a std::function or a shared_ptr
// capture — does not compile.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/contracts.h"
#include "common/units.h"
#include "sim/observers.h"

namespace wave::sim {

using common::usec;

/// Largest capture a scheduled callable may hold (bytes): the MPI fabric's
/// completion event, {this, Completion}, is 24.
inline constexpr std::size_t kTaskPayloadBytes = 24;

/// A callable the engine can hold: invocable with no arguments, trivially
/// copyable (so moving a task is a copy and nothing is ever destroyed),
/// and within kTaskPayloadBytes at pointer alignment.
template <typename F>
concept Schedulable = std::invocable<F&> && std::is_trivially_copyable_v<F> &&
                      sizeof(F) <= kTaskPayloadBytes &&
                      alignof(F) <= alignof(void*);

/// One scheduled callback: a function pointer and the callable's bytes.
class Task {
 public:
  Task() = default;
  template <Schedulable F>
  explicit Task(const F& fn) noexcept : invoke_(&call<F>) {
    ::new (static_cast<void*>(payload_)) F(fn);
  }

  /// Runs the callable (a Task must hold one).
  void operator()() { invoke_(payload_); }

 private:
  template <typename F>
  static void call(void* payload) {
    (*std::launder(static_cast<F*>(payload)))();
  }

  void (*invoke_)(void*) = nullptr;
  alignas(void*) unsigned char payload_[kTaskPayloadBytes];
};
static_assert(std::is_trivially_copyable_v<Task> && sizeof(Task) == 32,
              "a task is a function pointer and 24 payload bytes");

/// Event calendar and simulated clock.
class Engine {
 public:
  // The task slab and the bucket blocks grow on demand to the run's peak
  // of pending events, which for a wavefront is about 1.5 per rank
  // (docs/PERFORMANCE.md, "DES memory per rank").
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (µs).
  usec now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `time` (>= now()): its
  /// bytes are written straight into a recycled slab slot, which in steady
  /// state never allocates. (Defined inline below so the whole schedule
  /// path compiles into the caller.)
  template <Schedulable F>
  void at(usec time, const F& fn);

  /// Schedules `fn` `delay` µs from now (delay >= 0).
  template <Schedulable F>
  void after(usec delay, const F& fn) {
    WAVE_EXPECTS_MSG(delay >= 0.0, "delay must be non-negative");
    at(now_ + delay, fn);
  }

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
  // One pending event: 16 bytes. The high 64 bits are the event time's
  // IEEE-754 pattern — non-negative doubles order identically to their
  // bit patterns as unsigned integers, and simulated time never goes
  // negative (at() rejects t < now, now starts at 0; + 0.0 normalizes a
  // -0.0 input). The low 64 bits pack the FIFO sequence number (high 40
  // bits, reported by set_trace) over the task-slab slot (low 24 bits).
  // 2^24 bounds *pending* events (not total), 2^40 bounds events ever
  // scheduled — both checked where they could overflow.
  using Entry = unsigned __int128;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;

  static std::uint64_t entry_time(Entry e) {
    return static_cast<std::uint64_t>(e >> 64);
  }
  static std::uint32_t entry_slot(Entry e) {
    return static_cast<std::uint32_t>(e) & (kMaxSlots - 1);
  }
  static std::uint64_t entry_seq(Entry e) {
    return static_cast<std::uint64_t>(e) >> kSlotBits;
  }

  // The pending set, a radix heap keyed on the time bits. `last_` is the
  // time of the most recent pop. An event at time t waits in bucket
  // bit_width(t ^ last_): bucket 0 holds the events at exactly last_,
  // bucket b >= 1 those whose highest bit differing from last_ is bit
  // b - 1. Since t >= last_, every event in bucket b is earlier than every
  // event in bucket b + 1, and equal times always share a bucket. Each
  // bucket is a FIFO of entries, appended in schedule order, so (time,
  // seq) order — FIFO ties included — needs no seq compare: pop serves
  // bucket 0 in order; when it runs dry, refill() moves the lowest
  // non-empty bucket's minimum into last_ and redistributes that bucket,
  // in its stored order, over the buckets below it.
  //
  // A bucket is a chain of fixed blocks drawn from one shared free list,
  // so entries move in contiguous runs and the storage stays bounded by
  // the pending count plus two partly used blocks per bucket. Every
  // bucket always owns a tail block with room for one more entry, so
  // push() stores without a branch: the hot path of a redistribution,
  // whose destinations are unpredictable, never mispredicts on an empty
  // or full bucket.
  static constexpr int kBuckets = 65;
  static constexpr std::uint32_t kBlockEntries = 31;
  struct Block {
    Entry entries[kBlockEntries];
    Block* next;
  };
  struct Bucket {
    Block* head;  // entries [begin, ...) of head are pending
    Block* tail;  // entries [..., end) of tail are pending
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t least = ~std::uint64_t{0};  // smallest time bits held
  };

  /// Cold path of at(): adds a task chunk and frees its slots.
  void grow_task_slab();
  /// A block from the free list, or a new one.
  Block* new_block();
  void free_block(Block* block) {
    block->next = free_blocks_;
    free_blocks_ = block;
  }
  /// Appends `e` to the tail of its bucket.
  void push(Entry e) {
    const std::uint64_t time = entry_time(e);
    const int b = std::bit_width(time ^ last_);
    Bucket& bucket = buckets_[b];
    bucket.least = std::min(bucket.least, time);
    occupied_ |= std::uint64_t{b != 0} << ((b - 1) & 63);  // bucket 0: no bit
    bucket.tail->entries[bucket.end] = e;
    if (++bucket.end == kBlockEntries) [[unlikely]] {
      Block* block = new_block();
      bucket.tail->next = block;
      bucket.tail = block;
      bucket.end = 0;
    }
  }
  /// Empties the lowest non-empty bucket into the ones below it
  /// (bucket 0 must be empty and some event pending).
  void refill();
  /// Removes and returns the earliest pending entry (some must be pending).
  Entry pop_min();
  /// Advances the clock to `e` and runs its task in place.
  void execute(Entry e);

  /// The task slab: chunked so addresses are stable while a task runs —
  /// the run loop invokes tasks in place (no per-event copy) and recycles
  /// the slot only after the callback returns.
  static constexpr std::size_t kTaskChunkShift = 9;
  static constexpr std::size_t kTaskChunkSize = std::size_t{1}
                                               << kTaskChunkShift;
  Task& task(std::uint32_t slot) {
    return task_chunks_[slot >> kTaskChunkShift]
                       [slot & (kTaskChunkSize - 1)];
  }

  std::vector<std::unique_ptr<Task[]>> task_chunks_;
  std::size_t task_slots_ = 0;  // slots ever created (chunks * chunk size)
  std::vector<std::uint32_t> free_slots_;
  std::array<Bucket, kBuckets> buckets_;
  std::uint64_t occupied_ = 0;  // bit b - 1 set <=> bucket b >= 1 non-empty
  std::uint64_t last_ = 0;      // time bits of the latest pop (+0.0 at first)
  Block* free_blocks_ = nullptr;
  std::unique_ptr<Block[]> first_blocks_;  // one per bucket, in one piece
  std::vector<std::unique_ptr<Block>> blocks_;  // owns every later block
  std::size_t pending_ = 0;
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
    trace_->push_back({now_, entry_seq(e)});
  }
};

// ---- inline hot path --------------------------------------------------------
// at() is inline so call sites (the MPI protocol above all else) write each
// callable directly into its slab slot and the whole schedule path
// compiles into the caller — no indirect call.

template <Schedulable F>
[[gnu::always_inline]] inline void Engine::at(usec time, const F& fn) {
  WAVE_EXPECTS_MSG(time >= now_, "cannot schedule events in the past");
  WAVE_EXPECTS_MSG(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)),
                   "event sequence number overflow");
  if (free_slots_.empty()) grow_task_slab();
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  task(slot) = Task(fn);
  // + 0.0 turns a -0.0 input into +0.0 so the bit pattern orders right.
  push(static_cast<Entry>(std::bit_cast<std::uint64_t>(time + 0.0)) << 64 |
       (next_seq_++ << kSlotBits | slot));
  max_pending_ = std::max(max_pending_, ++pending_);
}

}  // namespace wave::sim
