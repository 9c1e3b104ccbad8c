// The memory gates' counting allocator: this binary's replacement global
// operator new/delete (every form, aligned ones included) keeps the live
// heap bytes, their peak, and the number of allocations and frees.
//
// The gates live in their own executable because they replace the global
// allocation functions. The counts are deterministic for a single-threaded
// workload: they depend on neither timing nor the optimisation level nor
// sanitizers.
#pragma once

#include <atomic>
#include <cstddef>

namespace wave::testing {

extern std::atomic<std::size_t> g_live;    ///< bytes allocated, not freed
extern std::atomic<std::size_t> g_peak;    ///< the most g_live has been
extern std::atomic<std::size_t> g_allocs;  ///< allocation calls
extern std::atomic<std::size_t> g_frees;   ///< frees of non-null blocks

}  // namespace wave::testing
