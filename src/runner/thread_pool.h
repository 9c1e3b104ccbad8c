// Scenario-level parallelism for the batch runner.
//
// Both kinds of point work parallelize embarrassingly at the scenario
// level: Solver::evaluate is const and thread-safe, and every
// simulate_wavefront call owns its single-threaded DES world. The pool
// hands out point indices from an atomic counter; callers write results
// into pre-sized slots indexed by point, so the output is independent of
// scheduling order and therefore of the thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace wave::runner {

/// Index-parallel executor.
class ThreadPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);

  int threads() const { return threads_; }

  /// Runs body(i) for every i in [0, count), spread over the pool's
  /// threads; blocks until all complete. Execution order is unspecified.
  /// Workers claim `chunk` consecutive indices per dispatch (one atomic
  /// increment per chunk), so million-point sweeps of cheap bodies don't
  /// serialize on the counter. Results must be written to per-index slots
  /// — chunking changes the schedule, never the output. The first
  /// exception thrown by `body` is rethrown here. Fail-fast: after any
  /// worker throws, unclaimed chunks are never started and in-flight
  /// chunks abandon their remaining indices (the current body(i) call
  /// itself runs to completion).
  void for_each_chunk(std::size_t count, std::size_t chunk,
                      const std::function<void(std::size_t)>& body) const;

 private:
  int threads_;
};

}  // namespace wave::runner
