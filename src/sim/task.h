// Small-buffer-optimized, move-only callable for the DES hot path.
//
// Every event the engine executes and every protocol completion the MPI
// fabric stores used to be a std::function<void()>: captures beyond the
// library's tiny SBO threshold (two pointers on libstdc++) heap-allocate,
// which put one malloc/free pair — often several — on the path of *every*
// simulated event. InlineTask replaces that with fixed inline storage and a
// static vtable: construction placement-news the callable into the object,
// moves are two pointer-sized stores plus the callable's own move, and no
// code path ever touches the allocator.
//
// The capacity is a hard compile-time budget: a capture that does not fit
// fails to build (static_assert below), so hot-path captures cannot
// silently regress into heap allocations. The largest capture in the tree
// is Mpi::with_busy's wrapper (this + rank + t0 + a 16-byte inner callable,
// 40 bytes); std::function<void()> itself (32 bytes on libstdc++) also
// fits, so bench code holding self-rescheduling std::functions still works.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wave::sim {

/// Move-only type-erased void() callable with fixed inline storage.
class InlineTask {
 public:
  /// Inline capture budget (bytes). Sized to the largest hot-path capture
  /// (Mpi::with_busy's wrapper: this + rank + t0 + a 16-byte callable =
  /// 40 bytes). Raise deliberately — every byte is paid by every queued
  /// event.
  static constexpr std::size_t kCapacity = 40;

  InlineTask() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineTask>>>
  InlineTask(F&& fn) {  // NOLINT: implicit by design, mirrors std::function
    emplace(std::forward<F>(fn));
  }

  InlineTask(InlineTask&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { reset(); }

  /// Invokes the stored callable (must hold one).
  void operator()() { ops_->invoke(storage_); }

  /// Invokes and destroys the stored callable in one dispatch, leaving the
  /// task empty — one indirect call instead of two on the event hot path.
  void consume() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->consume(storage_);
  }

  /// True when a callable is stored.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Replaces the stored callable with `fn`, constructed in place — no
  /// temporary task and no relocation (Engine::at builds each scheduled
  /// callable straight into its slab slot this way).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineTask>>>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture too large for InlineTask: shrink the capture or "
                  "deliberately raise InlineTask::kCapacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "hot-path callables must be nothrow-movable");
    reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  /// Destroys the stored callable, leaving the task empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*consume)(void*);                           // invoke + destroy
    void (*relocate)(void* src, void* dst) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* s) {
        Fn* f = static_cast<Fn*>(s);
        struct Reaper {  // destroy even if the callable throws
          Fn* f;
          ~Reaper() { f->~Fn(); }
        } reaper{f};
        (*f)();
      },
      [](void* src, void* dst) noexcept {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }};

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace wave::sim
