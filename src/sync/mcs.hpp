// Software MCS lock [6], with two ways of waiting:
//
//   kPoll  — classic: each core spins on its own node's `locked` word
//            (allocated in the core's tile-local banks, so the spinning at
//            least stays off the global interconnect),
//   kMwait — the paper's "Mwait lock" (Fig. 4): instead of spinning, the
//            core issues an Mwait on its node word and sleeps until the
//            predecessor's hand-over store wakes it.
//
// The queue-tail exchange uses amoswap; the release-time compare-and-swap
// uses the reservation pair (LR/SC or LRwait/SCwait, matching the system's
// adapter).
//
// Node memory is one `next` word and one `locked` word per core, allocated
// tile-locally by McsNodes::create(). Ordering-sensitive writes (node init
// before the tail swap) use acked stores (amoswap) — see spinlock.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/system.hpp"
#include "core/core.hpp"
#include "sim/co.hpp"
#include "sync/atomic.hpp"
#include "sync/backoff.hpp"

namespace colibri::sync {

enum class WaitKind : std::uint8_t { kPoll, kMwait };

[[nodiscard]] const char* toString(WaitKind w);

/// Per-core MCS queue nodes (shared by all MCS locks in the system, since a
/// core holds at most one lock at a time in our workloads).
struct McsNodes {
  std::vector<Addr> next;    ///< next[c]: successor core id + 1 (0 = none)
  std::vector<Addr> locked;  ///< locked[c]: 1 = wait, 0 = lock handed over

  static McsNodes create(arch::System& sys);
};

class McsLock {
 public:
  /// `tail` is the lock word: holds core id + 1 of the queue tail, 0 = free.
  McsLock(Addr tail, McsNodes& nodes, RmwFlavor casFlavor, WaitKind wait)
      : tail_(tail), nodes_(nodes), casFlavor_(casFlavor), wait_(wait) {}

  sim::Co<void> acquire(Core& core, Backoff& backoff);
  sim::Co<void> release(Core& core, Backoff& backoff);

 private:
  sim::Co<void> waitForWrite(Core& core, Addr a, sim::Word sleepValue,
                             Backoff& backoff);

  Addr tail_;
  McsNodes& nodes_;
  RmwFlavor casFlavor_;
  WaitKind wait_;
};

}  // namespace colibri::sync
