#include "sim/engine.h"

#include <cstdio>

namespace wave::sim {

std::uint32_t Engine::grow_task_slab() {
  WAVE_EXPECTS_MSG(task_slots_ < kMaxSlots, "too many pending events");
  task_chunks_.push_back(std::make_unique<InlineTask[]>(kTaskChunkSize));
  free_slots_.reserve(task_slots_ + kTaskChunkSize);
  for (std::size_t i = kTaskChunkSize; i-- > 1;)
    free_slots_.push_back(static_cast<std::uint32_t>(task_slots_ + i));
  const auto slot = static_cast<std::uint32_t>(task_slots_);
  task_slots_ += kTaskChunkSize;
  return slot;
}

void Engine::note_trace_truncated() {
  trace_truncated_ = true;
  std::fprintf(stderr,
               "wave-sim: WARNING: event trace truncated at %zu events "
               "(set_trace cap); the captured trace is incomplete\n",
               trace_cap_);
}

Engine::Entry Engine::pop_min() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

void Engine::execute(Entry e) {
  const std::uint32_t slot = entry_slot(e);
  now_ = entry_time(e);
  ++processed_;
  record(e);
  // Invoke in place (chunk addresses are stable even if the callback grows
  // the slab) with a fused invoke+destroy — one dispatch per event, no
  // per-event task move. The slot is recycled only after the callback
  // returns, so a reschedule cannot overwrite a running task.
  task(slot).consume();
  free_slots_.push_back(slot);
}

// ---- public scheduling API --------------------------------------------------

usec Engine::run() {
  while (!heap_.empty()) execute(pop_min());
  return now_;
}

}  // namespace wave::sim
