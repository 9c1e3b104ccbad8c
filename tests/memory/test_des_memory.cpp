// The DES memory gate: live heap bytes per rank of one paper-scale
// simulate_wavefront, counted by this binary's global operator new/delete.
//
// It is its own executable because it replaces the global allocation
// functions. Byte counts are deterministic: they depend on neither timing
// nor the optimisation level nor sanitizers (GCC lays out coroutine frames
// before optimising), so unlike the timing.* gates this one runs in every
// build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/benchmarks.h"
#include "loggp/registry.h"
#include "workloads/builtin.h"
#include "workloads/wavefront.h"

namespace {

// Each block carries its requested size in a max_align_t-sized header, so
// the delete side knows what to subtract without relying on sized delete.
constexpr std::size_t kHeader = alignof(std::max_align_t);

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted_alloc(std::size_t n) noexcept {
  void* block = std::malloc(n + kHeader);
  if (block == nullptr) return nullptr;
  std::memcpy(block, &n, sizeof n);
  const std::size_t live = g_live.fetch_add(n) + n;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  std::size_t n;
  std::memcpy(&n, block, sizeof n);
  g_live.fetch_sub(n);
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
  std::memcpy(block, &n, sizeof n);
  const std::size_t live = g_live.fetch_add(n) + n;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + align;
}

void counted_aligned_free(void* p, std::align_val_t al) noexcept {
  if (p == nullptr) return;
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), kHeader);
  char* block = static_cast<char*>(p) - align;
  std::size_t n;
  std::memcpy(&n, block, sizeof n);
  g_live.fetch_sub(n);
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

namespace {

namespace wb = wave::core::benchmarks;
namespace ww = wave::workloads;

// The paper-scale point of SimulateWavefront.PaperScaleRecordAtP4096IsPinned
// (Sweep3D 256x256x8 on the dual-core XT4, 64 x 64 ranks). Per rank it
// holds a coroutine frame, its share of the task slab and the message and
// posted-receive pools, the pending-event buckets and the per-rank fabric
// state (docs/PERFORMANCE.md, "DES memory per rank").
constexpr double kMaxBytesPerRank = 820.0;

TEST(DesMemory, PaperScaleWavefrontPeakBytesPerRank) {
  wb::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = 256;
  cfg.nz = 8;
  const wave::core::AppParams app = wb::sweep3d(cfg);
  const wave::core::MachineConfig dual =
      wave::core::MachineConfig::xt4_dual_core();
  const wave::loggp::CommModelRegistry registry;
  const ww::SimMachine machine = ww::sim_machine(dual, registry);
  const wave::topo::Grid grid(64, 64);

  const std::size_t before = g_live.load();
  g_peak.store(before);
  const ww::SimOutput res = ww::simulate_wavefront(app, machine, grid, 1);
  const double per_rank =
      static_cast<double>(g_peak.load() - before) / grid.size();

  ASSERT_EQ(res.events, 1204224u);  // the pinned run, not some other one
  std::printf("peak live heap: %.1f bytes per rank (gate %.0f)\n", per_rank,
              kMaxBytesPerRank);
  EXPECT_LE(per_rank, kMaxBytesPerRank);
}

}  // namespace
