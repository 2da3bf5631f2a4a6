// InlineEvent: the engine's move-only callable with small-buffer storage.
//
// Every simulated memory operation schedules several events; with
// std::function each closure that outgrew the 16-byte SSO buffer cost a
// heap allocation on the per-op hot path. InlineEvent reserves 48 bytes
// of inline storage — enough for every closure the simulator schedules
// (asserted with static_asserts at each scheduling site via fitsInline) —
// and falls back to the heap only for oversized callables (test drivers,
// user callbacks routed through System::at).
//
// Heap fallbacks are counted in a process-wide counter (aggregated across
// SweepRunner's worker threads) so tests can assert that a
// steady-state simulation performs zero event allocations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/check.hpp"

namespace colibri::sim {

class InlineEvent {
 public:
  /// Inline capture budget. Sized for the largest hot-path closure
  /// (core issue: this + MemRequest + coroutine handle = 40 bytes) with
  /// headroom; grow deliberately — every node in the event queue pays it.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

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

  InlineEvent(InlineEvent&& other) noexcept { moveFrom(std::move(other)); }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(std::move(other));
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { reset(); }

  void operator()() {
    COLIBRI_CHECK_MSG(vtable_ != nullptr, "invoking an empty InlineEvent");
    vtable_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  /// Destroy the held callable (if any); the event becomes empty.
  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) {
        vtable_->destroy(buf_);
      }
      vtable_ = nullptr;
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
  struct VTable {
    void (*invoke)(void* obj);
    /// nullptr => trivially destructible (or heap: never null there).
    void (*destroy)(void* obj) noexcept;
    /// Move the representation from one buffer to another and destroy the
    /// source representation. nullptr => the representation is trivially
    /// relocatable and a buffer memcpy suffices (covers trivially movable
    /// inline callables and the heap case, which relocates its pointer).
    /// Either way an InlineEvent move never allocates.
    void (*relocate)(void* from, void* to) noexcept;
  };

  template <typename D>
  static void inlineInvoke(void* p) {
    (*std::launder(static_cast<D*>(p)))();
  }
  template <typename D>
  static void inlineDestroy(void* p) noexcept {
    std::launder(static_cast<D*>(p))->~D();
  }
  template <typename D>
  static void inlineRelocate(void* from, void* to) noexcept {
    D* src = std::launder(static_cast<D*>(from));
    ::new (to) D(std::move(*src));
    src->~D();
  }

  template <typename D>
  static void heapInvoke(void* p) {
    (**std::launder(static_cast<D**>(p)))();
  }
  template <typename D>
  static void heapDestroy(void* p) noexcept {
    delete *std::launder(static_cast<D**>(p));
  }

  template <typename D>
  static constexpr VTable kInlineVTable{
      &inlineInvoke<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &inlineDestroy<D>,
      std::is_trivially_move_constructible_v<D> &&
              std::is_trivially_destructible_v<D>
          ? nullptr
          : &inlineRelocate<D>};
  template <typename D>
  static constexpr VTable kHeapVTable{&heapInvoke<D>, &heapDestroy<D>,
                                      nullptr};

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vtable_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) void*(new D(std::forward<F>(f)));
      heapFallbacks_.fetch_add(1, std::memory_order_relaxed);
      vtable_ = &kHeapVTable<D>;
    }
  }

  void moveFrom(InlineEvent&& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      if (vtable_->relocate != nullptr) {
        vtable_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      other.vtable_ = nullptr;
    }
  }

  inline static std::atomic<std::uint64_t> heapFallbacks_{0};

  alignas(kInlineAlign) std::byte buf_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

}  // namespace colibri::sim
