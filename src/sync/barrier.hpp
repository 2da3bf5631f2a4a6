// Central sense-reversing barrier over the simulated atomics.
//
// Arrivals are counted with an amoadd; the last core flips the sense word,
// releasing the others. Waiters either poll the sense word (with a short
// pause) or sleep on it with Mwait — a textbook use of the paper's Mwait:
// the whole waiting set is woken by the single sense-flip store, draining
// the reservation queue without any polling traffic.
#pragma once

#include <cstdint>

#include "arch/system.hpp"
#include "core/core.hpp"
#include "sim/co.hpp"
#include "sync/backoff.hpp"
#include "sync/mcs.hpp"

namespace colibri::sync {

class CentralBarrier {
 public:
  /// Allocates the counter and sense words. `participants` cores must call
  /// wait() per round.
  CentralBarrier(arch::System& sys, std::uint32_t participants, WaitKind wait);

  /// One barrier episode. Each core keeps its own `localSense` (flipped per
  /// round by this call).
  sim::Co<void> wait(Core& core, sim::Word& localSense, Backoff& backoff);

 private:
  Addr counter_;
  Addr sense_;
  std::uint32_t participants_;
  WaitKind waitKind_;
};

}  // namespace colibri::sync
