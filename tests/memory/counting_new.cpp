#include "counting_new.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace wave::testing {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_frees{0};

}  // namespace wave::testing

namespace {

using wave::testing::g_allocs;
using wave::testing::g_frees;
using wave::testing::g_live;
using wave::testing::g_peak;

// Each block carries its requested size in a max_align_t-sized header, so
// the delete side knows what to subtract without relying on sized delete.
constexpr std::size_t kHeader = alignof(std::max_align_t);

/// Records an allocation of `n` bytes at `block` (the header's start).
void note_alloc(void* block, std::size_t n) noexcept {
  std::memcpy(block, &n, sizeof n);
  g_allocs.fetch_add(1);
  const std::size_t live = g_live.fetch_add(n) + n;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
}

/// Records the free of the block whose header starts at `block`.
void note_free(const void* block) noexcept {
  std::size_t n;
  std::memcpy(&n, block, sizeof n);
  g_frees.fetch_add(1);
  g_live.fetch_sub(n);
}

void* counted_alloc(std::size_t n) noexcept {
  void* block = std::malloc(n + kHeader);
  if (block == nullptr) return nullptr;
  note_alloc(block, n);
  return static_cast<char*>(block) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  note_free(block);
  std::free(block);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

// Over-aligned blocks (the fabric's cache-line rank records) put their
// header in a whole alignment unit in front of the block.
void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), kHeader);
  const std::size_t size = (n + align + align - 1) / align * align;
  void* block = std::aligned_alloc(align, size);
  if (block == nullptr) throw std::bad_alloc();
  note_alloc(block, n);
  return static_cast<char*>(block) + align;
}

void counted_aligned_free(void* p, std::align_val_t al) noexcept {
  if (p == nullptr) return;
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), kHeader);
  char* block = static_cast<char*>(p) - align;
  note_free(block);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p, std::align_val_t al) noexcept {
  counted_aligned_free(p, al);
}
void operator delete[](void* p, std::align_val_t al) noexcept {
  counted_aligned_free(p, al);
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  counted_aligned_free(p, al);
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  counted_aligned_free(p, al);
}

