// Throughput-limited shared resources.
//
// Interconnect links and memory-bank ports serve a bounded number of
// transfers per cycle. Instead of simulating per-cycle arbitration, a
// ThroughputResource hands out service *slots*: a request arriving at time
// t is granted the earliest slot >= t that respects the bandwidth limit,
// in arrival order (FIFO). This models queueing delay under contention —
// the mechanism behind the paper's polling-interference results (Fig. 5) —
// at event-level cost.
#pragma once

#include <cstdint>

#include "sim/check.hpp"
#include "sim/types.hpp"

namespace colibri::sim {

class ThroughputResource {
 public:
  /// `slotsPerCycle` transfers can start in any one cycle (>= 1).
  explicit ThroughputResource(std::uint32_t slotsPerCycle = 1)
      : slotsPerCycle_(slotsPerCycle) {
    COLIBRI_CHECK(slotsPerCycle >= 1);
  }

  /// Claim the next free slot at or after `at`; returns the cycle in which
  /// service starts. Requests must be issued in non-decreasing time order
  /// per caller, but interleaved callers are fine (global FIFO).
  Cycle acquire(Cycle at) {
    if (at > cursor_) {
      cursor_ = at;
      used_ = 0;
    }
    if (used_ >= slotsPerCycle_) {
      ++cursor_;
      used_ = 0;
    }
    ++used_;
    return cursor_;
  }

  /// Claim `n` consecutive slots, the first at or after `at`, each
  /// subsequent one at or after its predecessor; returns the cycle of the
  /// last slot. Exactly equivalent (state and return value) to
  /// `g = acquire(at); repeat n-1 times: g = acquire(g);` — the pattern
  /// backpressured messages use to hold a stage for several slots — but in
  /// closed form instead of a loop.
  Cycle acquire(Cycle at, std::uint32_t n) {
    COLIBRI_CHECK(n >= 1);
    Cycle granted = acquire(at);
    const std::uint32_t rest = n - 1;
    if (rest == 0) {
      return granted;
    }
    const std::uint32_t freeNow = slotsPerCycle_ - used_;
    if (rest <= freeNow) {
      used_ += rest;
      return cursor_;
    }
    // Fill the current cycle, then spill over whole cycles.
    const std::uint32_t spill = rest - freeNow;
    const Cycle extraCycles = (spill + slotsPerCycle_ - 1) / slotsPerCycle_;
    cursor_ += extraCycles;
    used_ = spill - static_cast<std::uint32_t>(extraCycles - 1) * slotsPerCycle_;
    return cursor_;
  }

  /// Earliest cycle >= `at` at which a slot *would* be granted (no claim).
  [[nodiscard]] Cycle peek(Cycle at) const {
    if (at > cursor_) {
      return at;
    }
    return used_ >= slotsPerCycle_ ? cursor_ + 1 : cursor_;
  }

 private:
  // 16 B: the network keeps one per shared stage (1,312 at 4096 cores).
  Cycle cursor_ = 0;        // cycle currently being filled
  std::uint32_t slotsPerCycle_;
  std::uint32_t used_ = 0;  // slots consumed in `cursor_`
};

}  // namespace colibri::sim
