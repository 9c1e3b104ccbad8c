// Coroutine process type for simulated MPI ranks.
//
// A `Process` is a C++20 coroutine that models one thread of control in the
// simulation (typically one MPI rank's program). Processes are composable:
// a Process may `co_await` another Process, which runs the child to
// completion in simulated time and then resumes the parent (symmetric
// transfer, no recursion on the machine stack). Top-level processes are
// handed to Engine-side drivers (see mpi.h) which start them and track
// completion.
//
// Exceptions thrown inside a process propagate: to the awaiting parent if
// nested, or out of World::run() for top-level processes.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace wave::sim {

class Process {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // parent awaiting us, if nested
    std::exception_ptr exception;

    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Process() = default;
  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Process(Process&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Process& operator=(Process&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  /// Awaiting a Process starts it and resumes the awaiter on completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
        child.promise().continuation = parent;
        return child;  // symmetric transfer into the child
      }
      void await_resume() {
        if (child.promise().exception)
          std::rethrow_exception(child.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> handle() const { return handle_; }
  bool valid() const { return handle_ != nullptr; }
  /// True once the body has returned or thrown: the coroutine then rests
  /// at its final suspend point (call only while it is suspended).
  bool finished() const { return handle_ && handle_.done(); }
  std::exception_ptr exception() const {
    return handle_ ? handle_.promise().exception : nullptr;
  }

  /// Starts a top-level process (must not be awaited by anyone).
  void start() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace wave::sim
