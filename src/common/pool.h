// Slab-backed object pools for allocation-free steady state.
//
// A SlabPool owns its objects in fixed-size slabs (stable addresses) and
// recycles them through a free list: after the warm-up allocations that
// grow the slabs, acquire/release never touch the allocator. Objects are
// reset to their default-constructed state on acquire, so a recycled
// object is indistinguishable from a fresh one — which is what keeps
// pooling invisible to the determinism contract (docs/ARCHITECTURE.md).
//
// Not thread-safe by design: each sim::Mpi owns its pools and a DES world
// is single-threaded; cross-scenario parallelism happens at the
// BatchRunner level where nothing is shared.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace wave::common {

/// Free-list pool over slab storage. T must be default-constructible and
/// move-assignable.
template <typename T, std::size_t kSlabObjects = 256>
class SlabPool {
 public:
  /// Returns a default-state object; allocates a new slab only when the
  /// free list is empty.
  T* acquire() {
    T* p = acquire_dirty();
    *p = T{};
    return p;
  }

  /// Returns an object WITHOUT resetting it — the caller must bring every
  /// field to a defined state itself. Worth it only on hot paths where the
  /// caller initializes everything anyway.
  T* acquire_dirty() {
    if (free_.empty()) grow();
    T* p = free_.back();
    free_.pop_back();
    return p;
  }

  /// Returns `p` (previously acquired from this pool) to the free list.
  /// The object is reset lazily at next acquire.
  void release(T* p) { free_.push_back(p); }

 private:
  void grow() {
    slabs_.push_back(std::make_unique<T[]>(kSlabObjects));
    T* base = slabs_.back().get();
    free_.reserve(slabs_.size() * kSlabObjects);
    // Reverse order so the earliest acquires get ascending addresses.
    for (std::size_t i = kSlabObjects; i-- > 0;) free_.push_back(base + i);
  }

  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<T*> free_;
};

}  // namespace wave::common
