// Generic atomic read-modify-write operations over the three hardware
// flavors the paper compares:
//
//   kAmo      — single-instruction AMO (only simple ops like add/swap),
//   kLrsc     — standard LR/SC retry loop (polling, retries),
//   kLrscWait — the paper's LRwait/SCwait pair (polling- and retry-free;
//               the only retry left is the immediate-fail of a full
//               reservation queue, and the rare SCwait failure after an
//               interfering plain store).
//
// Each is a frameless awaiter that runs on a simulated Core: awaiting it
// runs the flavor's whole loop as a chain of core callbacks (arch::Resume)
// and resumes the caller once, when the RMW is done. The flavor must match
// the system's adapter (e.g. kLrscWait requires LrscWait or Colibri).
#pragma once

#include <coroutine>
#include <cstdint>

#include "core/core.hpp"
#include "sync/backoff.hpp"

namespace colibri::sync {

using arch::Core;
using sim::Addr;
using sim::Word;

enum class RmwFlavor : std::uint8_t { kAmo, kLrsc, kLrscWait };

[[nodiscard]] const char* toString(RmwFlavor f);

/// Cycles of local computation between the load half and the store half of
/// an LR/SC-style RMW (the add + branch of the paper's histogram kernel).
inline constexpr sim::Cycle kRmwComputeCycles = 2;

struct RmwResult {
  Word old = 0;        ///< value observed before the modification
  bool performed = true;  ///< false only when abandoned via `abandon`
};

struct CasResult {
  Word observed = 0;  ///< value seen (== expected iff swapped)
  bool swapped = false;
};

/// The state of one RMW or CAS loop while its caller sleeps. It lives in
/// the caller's coroutine frame (an awaiter temporary), is the context of
/// every callback of the loop, and is not touched after the caller resumes.
class RmwLoop {
 public:
  RmwLoop(const RmwLoop&) = delete;
  RmwLoop& operator=(const RmwLoop&) = delete;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> caller);

 protected:
  RmwLoop(Core& core, RmwFlavor flavor, bool cas, Addr a, Word expected,
          Word operand, Backoff& backoff, const bool* abandon)
      : core_(core), backoff_(backoff), abandon_(abandon), addr_(a),
        expected_(expected), operand_(operand), flavor_(flavor), cas_(cas) {}

  /// The outcome, once the caller has resumed: the old (fetchAdd) or
  /// observed (CAS) value, and whether the loop performed / swapped.
  [[nodiscard]] Word value() const { return value_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  friend struct RmwSteps;

  Core& core_;
  Backoff& backoff_;
  const bool* abandon_;
  std::coroutine_handle<> caller_;
  Addr addr_;
  Word expected_;  ///< CAS only
  Word operand_;   ///< delta (fetchAdd) or desired value (CAS)
  arch::MemResponse resp_;
  Word value_ = 0;  ///< the reserved (LR/LRwait) value, then the result
  bool ok_ = false;
  RmwFlavor flavor_;
  bool cas_;
};

// Every core asleep in an RMW holds one in its frame; keep it to 64 B.
static_assert(sizeof(RmwLoop) <= 64);

/// Awaitable result of fetchAdd.
class [[nodiscard]] FetchAdd : public RmwLoop {
 public:
  FetchAdd(Core& core, RmwFlavor flavor, Addr a, Word delta, Backoff& backoff,
           const bool* abandon)
      : RmwLoop(core, flavor, false, a, 0, delta, backoff, abandon) {}
  RmwResult await_resume() const noexcept { return {value(), ok()}; }
};

/// Awaitable result of compareAndSwap.
class [[nodiscard]] CompareAndSwap : public RmwLoop {
 public:
  CompareAndSwap(Core& core, RmwFlavor flavor, Addr a, Word expected,
                 Word desired, Backoff& backoff, const bool* abandon)
      : RmwLoop(core, flavor, true, a, expected, desired, backoff, abandon) {}
  CasResult await_resume() const noexcept { return {value(), ok()}; }
};

/// fetchAdd (`cas` false: add `operand`) or compareAndSwap (`cas` true:
/// `expected` -> `operand`), picked at run time. One awaiter type, so a
/// coroutine that issues both through one co_await keeps one awaiter in
/// its frame. `observed` is the old or observed value and `swapped` says
/// whether the add was performed or the swap happened.
class [[nodiscard]] FetchAddOrCas : public RmwLoop {
 public:
  FetchAddOrCas(Core& core, RmwFlavor flavor, bool cas, Addr a,
                Word expected, Word operand, Backoff& backoff,
                const bool* abandon)
      : RmwLoop(core, flavor, cas, a, expected, operand, backoff, abandon) {}
  CasResult await_resume() const noexcept { return {value(), ok()}; }
};

/// Atomically add `delta` to *a and return the previous value.
/// If `abandon` is non-null and becomes true, the loop may give up at a
/// retry point *before* holding a grant (never between LRwait and SCwait,
/// which would violate the pair constraint) and returns performed=false.
inline FetchAdd fetchAdd(Core& core, RmwFlavor flavor, Addr a, Word delta,
                         Backoff& backoff, const bool* abandon = nullptr) {
  return {core, flavor, a, delta, backoff, abandon};
}

/// Compare-and-swap via the reservation pair (not available for kAmo).
/// Reservation-based, hence ABA-immune: an SC/SCwait fails on *any*
/// intervening write, not on a value comparison.
/// If `abandon` is non-null and becomes true, the retry loop gives up at a
/// retry point before holding a grant (like fetchAdd) and reports
/// swapped=false — without this, single-slot LR/SC workers whose SCs keep
/// losing the bank's reservation can spin past a stop flag forever.
inline CompareAndSwap compareAndSwap(Core& core, RmwFlavor flavor, Addr a,
                                     Word expected, Word desired,
                                     Backoff& backoff,
                                     const bool* abandon = nullptr) {
  return {core, flavor, a, expected, desired, backoff, abandon};
}

}  // namespace colibri::sync
