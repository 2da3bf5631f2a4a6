// InlineEvent: the engine's callable, stored inline in a fixed buffer.
//
// Every simulated memory operation schedules several events; with
// std::function each closure that outgrew the 16-byte SSO buffer cost a
// heap allocation on the per-op hot path. InlineEvent reserves 40 bytes
// of 8-aligned inline storage and has no heap fallback: constructing one
// from a closure that does not fit is a compile error (the static_assert
// in construct()), so every scheduling site is checked in one place and a
// scheduled event never allocates.
//
// An event runs once. One function pointer (the closure type's thunk) does
// both operations on the stored callable: run (invoke, then destroy) and
// destroy. A dispatched event pays one indirect call for running and
// destroying its closure (run()), and buffer plus thunk fill 48 bytes, so
// a queue node stays within one cache line (eventqueue.hpp). An event is
// built in place inside its queue node and runs there, so it is neither
// copyable nor movable.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// True iff a callable of type F fits the inline buffer, i.e. an
  /// InlineEvent can be built from it.
  template <typename F>
  static constexpr bool fitsInline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= kInlineAlign;

  InlineEvent() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineEvent> &&
             std::is_invocable_v<std::decay_t<F>&>)
  explicit InlineEvent(F&& f) {
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
    t(Op::kRun, buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return thunk_ != nullptr;
  }

  /// Destroy the held callable (if any); the event becomes empty.
  void reset() noexcept {
    if (thunk_ != nullptr) {
      Thunk* const t = thunk_;
      thunk_ = nullptr;
      t(Op::kDestroy, buf_);
    }
  }

 private:
  enum class Op : std::uint8_t {
    kRun,      ///< invoke, then destroy (also when the invocation throws)
    kDestroy,  ///< destroy only
  };
  /// The one per-type operation on the callable living in `obj`. Only
  /// kRun may throw (whatever the callable throws).
  using Thunk = void(Op op, void* obj);

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
  static void thunk(Op op, void* obj) {
    D* d = std::launder(static_cast<D*>(obj));
    if (op == Op::kRun) [[likely]] {
      if constexpr (std::is_trivially_destructible_v<D>) {
        (*d)();
      } else {
        DestroyOnExit<D> guard{d};
        (*d)();
      }
    } else {
      d->~D();
    }
  }

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    static_assert(fitsInline<D>,
                  "the event's closure exceeds the inline buffer "
                  "(InlineEvent::kInlineSize bytes, kInlineAlign-aligned)");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    thunk_ = &thunk<D>;
  }

  alignas(kInlineAlign) std::byte buf_[kInlineSize];
  Thunk* thunk_ = nullptr;
};

}  // namespace colibri::sim
