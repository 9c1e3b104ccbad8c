#include "sim/engine.h"

#include <cstdio>

namespace wave::sim {

Engine::Engine()
    : first_blocks_(std::make_unique_for_overwrite<Block[]>(kBuckets)) {
  for (int b = 0; b < kBuckets; ++b)
    buckets_[b].head = buckets_[b].tail = &first_blocks_[b];
}

void Engine::grow_task_slab() {
  WAVE_EXPECTS_MSG(task_slots_ < kMaxSlots, "too many pending events");
  task_chunks_.push_back(
      std::make_unique_for_overwrite<Task[]>(kTaskChunkSize));
  free_slots_.reserve(task_slots_ + kTaskChunkSize);
  // Highest first, so the chunk's slots are handed out in index order.
  for (std::size_t i = kTaskChunkSize; i-- > 0;)
    free_slots_.push_back(static_cast<std::uint32_t>(task_slots_ + i));
  task_slots_ += kTaskChunkSize;
}

Engine::Block* Engine::new_block() {
  if (free_blocks_ == nullptr) {
    blocks_.push_back(std::make_unique_for_overwrite<Block>());
    return blocks_.back().get();
  }
  Block* block = free_blocks_;
  free_blocks_ = block->next;
  return block;
}

void Engine::note_trace_truncated() {
  trace_truncated_ = true;
  std::fprintf(stderr,
               "wave-sim: WARNING: event trace truncated at %zu events "
               "(set_trace cap); the captured trace is incomplete\n",
               trace_cap_);
}

void Engine::refill() {
  // The lowest non-empty bucket b gives up its minimum as the new last_.
  // Everything in b shares the bits above b - 1 with both the old and the
  // new last_, so the buckets above b stay valid, and each entry of b
  // lands strictly below b — at least its minimum in bucket 0.
  const int b = std::countr_zero(occupied_) + 1;
  occupied_ &= occupied_ - 1;
  Bucket& source = buckets_[b];
  last_ = source.least;
  source.least = ~std::uint64_t{0};
  Block* block = source.head;
  std::uint32_t k = source.begin;
  for (; block != source.tail; k = 0) {
    for (; k < kBlockEntries; ++k) push(block->entries[k]);
    Block* spent = block;
    block = block->next;
    free_block(spent);
  }
  for (; k < source.end; ++k) push(block->entries[k]);
  source.head = block;  // the emptied bucket keeps its tail block
  source.begin = source.end = 0;
}

Engine::Entry Engine::pop_min() {
  Bucket& due = buckets_[0];
  if (due.begin == due.end && due.head == due.tail) {
    due.begin = due.end = 0;  // empty: rewind onto its one block
    refill();
  }
  const Entry e = due.head->entries[due.begin];
  if (++due.begin == kBlockEntries) {
    Block* spent = due.head;
    due.head = spent->next;
    due.begin = 0;
    free_block(spent);
  }
  --pending_;
  return e;
}

void Engine::execute(Entry e) {
  const std::uint32_t slot = entry_slot(e);
  now_ = std::bit_cast<usec>(entry_time(e));
  ++processed_;
  record(e);
  // Invoke in place (chunk addresses are stable even if the callback grows
  // the slab): one indirect call per event, no copy and no destructor.
  // The slot is recycled only after the callback returns, so a reschedule
  // cannot overwrite a running task.
  task(slot)();
  free_slots_.push_back(slot);
}

// ---- public scheduling API --------------------------------------------------

usec Engine::run() {
  while (pending_ != 0) execute(pop_min());
  return now_;
}

}  // namespace wave::sim
