#include "runner/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wave::runner {

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  if (threads_ <= 0)
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ <= 0) threads_ = 1;
}

void ThreadPool::for_each_chunk(
    std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t)>& body) const {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_),
                            (count + chunk - 1) / chunk);

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + chunk, count);
      try {
        // Fail-fast inside the chunk too: once any worker has thrown,
        // remaining indices are abandoned mid-chunk instead of running a
        // body that is already known to be pointless (or poisoned).
        for (std::size_t i = begin; i < end; ++i) {
          if (failed.load(std::memory_order_relaxed)) return;
          body(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> extra;
  extra.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) extra.emplace_back(worker);
  worker();
  for (std::thread& t : extra) t.join();

  if (error) std::rethrow_exception(error);
}

}  // namespace wave::runner
