// InlineEvent: the engine's move-only callable with small-buffer storage.
//
// Every simulated memory operation schedules several events; with
// std::function each closure that outgrew the 16-byte SSO buffer cost a
// heap allocation on the per-op hot path. InlineEvent reserves 40 bytes
// of 8-aligned inline storage — enough for every closure the simulator
// schedules (asserted with static_asserts at each scheduling site via
// fitsInline) — and falls back to the heap only for oversized callables
// (test drivers, user callbacks routed through System::at).
//
// An event runs once. One function pointer (the closure type's thunk) does
// every operation on the stored callable: run (invoke, then destroy),
// destroy and relocate. A dispatched event pays one indirect call for
// running and destroying its closure (run()), and buffer plus thunk fill
// 48 bytes, so a queue node stays within one cache line (eventqueue.hpp).
//
// Heap fallbacks are counted in a process-wide counter (aggregated across
// SweepRunner's worker threads) so tests can assert that a
// steady-state simulation performs zero event allocations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/check.hpp"

namespace colibri::sim {

class InlineEvent {
 public:
  /// Inline capture budget. Sized for the largest hot-path closure
  /// (core issue: this + MemRequest + coroutine handle = 40 bytes); grow
  /// deliberately — every node in the event queue pays it, and a node is
  /// one 64-byte cache line.
  static constexpr std::size_t kInlineSize = 40;
  static constexpr std::size_t kInlineAlign = 8;

  /// True iff a callable of type F is stored inline (no heap allocation).
  /// Scheduling sites on the per-op path static_assert this.
  template <typename F>
  static constexpr bool fitsInline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineEvent() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineEvent> &&
             std::is_invocable_v<std::decay_t<F>&>)
  InlineEvent(F&& f) {  // NOLINT(google-explicit-constructor) — events are
                        // passed as lambdas at ~30 call sites
    construct(std::forward<F>(f));
  }

  /// Destroy the held callable (if any) and construct `f` in place —
  /// the event queue builds closures directly inside pooled nodes with
  /// this, so scheduling performs zero intermediate moves.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineEvent> &&
             std::is_invocable_v<std::decay_t<F>&>)
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  InlineEvent(InlineEvent&& other) noexcept { moveFrom(other); }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { reset(); }

  /// Invoke the held callable once and destroy it, in one thunk call; the
  /// event is empty afterwards. If the callable throws, it is still
  /// destroyed (exactly once) before the exception leaves.
  void run() {
    COLIBRI_CHECK_MSG(thunk_ != nullptr, "invoking an empty InlineEvent");
    Thunk* const t = thunk_;
    thunk_ = nullptr;
    t(Op::kRun, buf_, nullptr);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return thunk_ != nullptr;
  }

  /// Destroy the held callable (if any); the event becomes empty.
  void reset() noexcept {
    if (thunk_ != nullptr) {
      Thunk* const t = thunk_;
      thunk_ = nullptr;
      t(Op::kDestroy, buf_, nullptr);
    }
  }

  /// Number of heap-fallback constructions process-wide since start.
  /// Test hook: a steady-state simulation must not move this counter.
  /// A single atomic (not thread-local) so the count stays meaningful when
  /// concurrent sweep points construct events on worker threads; the fallback
  /// path is cold (oversized driver closures only), so the relaxed
  /// increment costs nothing on the hot path.
  [[nodiscard]] static std::uint64_t heapFallbackCount() noexcept {
    return heapFallbacks_.load(std::memory_order_relaxed);
  }

 private:
  enum class Op : std::uint8_t {
    kRun,       ///< invoke, then destroy (also when the invocation throws)
    kDestroy,   ///< destroy only
    kRelocate,  ///< move-construct into `to`, then destroy the source
  };
  /// The one per-type operation: `obj` is the buffer the callable (or, for
  /// a heap fallback, the pointer to it) lives in; `to` is the target
  /// buffer of kRelocate and unused otherwise. Only kRun may throw
  /// (whatever the callable throws).
  using Thunk = void(Op op, void* obj, void* to);

  /// Destroys `*d` when it leaves scope, so kRun destroys a callable that
  /// throws exactly once.
  template <typename D>
  struct DestroyOnExit {
    D* d;
    ~DestroyOnExit() { d->~D(); }
  };

  // kRun, the per-event operation, is tested first so it costs one
  // compare-and-branch.
  template <typename D>
  static void inlineThunk(Op op, void* obj, void* to) {
    D* d = std::launder(static_cast<D*>(obj));
    if (op == Op::kRun) [[likely]] {
      if constexpr (std::is_trivially_destructible_v<D>) {
        (*d)();
      } else {
        DestroyOnExit<D> guard{d};
        (*d)();
      }
    } else if (op == Op::kDestroy) {
      d->~D();
    } else if constexpr (std::is_trivially_copyable_v<D>) {
      std::memcpy(to, obj, sizeof(D));
    } else {
      ::new (to) D(std::move(*d));
      d->~D();
    }
  }

  /// Heap fallback: the buffer holds a D*. Relocation moves the pointer.
  template <typename D>
  static void heapThunk(Op op, void* obj, void* to) {
    D* d = *std::launder(static_cast<D**>(obj));
    if (op == Op::kRun) [[likely]] {
      const std::unique_ptr<D> owner(d);
      (*d)();
    } else if (op == Op::kDestroy) {
      delete d;
    } else {
      ::new (to) D*(d);
    }
  }

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      thunk_ = &inlineThunk<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      heapFallbacks_.fetch_add(1, std::memory_order_relaxed);
      thunk_ = &heapThunk<D>;
    }
  }

  void moveFrom(InlineEvent& other) noexcept {
    if (other.thunk_ != nullptr) {
      other.thunk_(Op::kRelocate, other.buf_, buf_);
      thunk_ = other.thunk_;
      other.thunk_ = nullptr;
    }
  }

  inline static std::atomic<std::uint64_t> heapFallbacks_{0};

  alignas(kInlineAlign) std::byte buf_[kInlineSize];
  Thunk* thunk_ = nullptr;
};

}  // namespace colibri::sim
