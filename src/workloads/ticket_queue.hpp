// Bounded MPMC ticket queue (Vyukov-style) on the simulated memory.
//
// Two shared ticket counters are claimed with a generic fetch-add RMW (the
// flavor under test: LR/SC or LRwait/SCwait); each slot has a sequence
// word mediating the producer/consumer hand-off. Waiting on a sequence
// word either polls or sleeps with Mwait.
//
// Blocking semantics: enqueue blocks while the queue is full, dequeue
// blocks while it is empty (the ticket holder waits for its slot's
// sequence word).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/system.hpp"
#include "core/core.hpp"
#include "sim/co.hpp"
#include "sync/atomic.hpp"
#include "sync/backoff.hpp"

namespace colibri::workloads {

class TicketQueue {
 public:
  /// Allocate queue storage. `prefill` values are pre-published so early
  /// dequeuers don't block (they consume tickets 0..prefill-1).
  static TicketQueue create(arch::System& sys, std::uint32_t capacity,
                            const std::vector<sim::Word>& prefill = {});

  sim::Co<void> enqueue(arch::Core& core, sim::Word v,
                        sync::RmwFlavor flavor, bool useMwait,
                        sync::Backoff& backoff);

  /// Dequeue one value; if `ticketOut` is non-null, receives the claim
  /// ticket (the linearization index of this dequeue).
  sim::Co<sim::Word> dequeue(arch::Core& core, sync::RmwFlavor flavor,
                             bool useMwait, sync::Backoff& backoff,
                             sim::Word* ticketOut = nullptr);

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }

  /// Wait until *a == want (polling or Mwait). Shared helper, also used by
  /// other slot-handoff patterns.
  static sim::Co<void> awaitValue(arch::Core& core, sim::Addr a,
                                  sim::Word want, bool useMwait,
                                  sync::Backoff& backoff);

 private:
  sim::Addr tail_ = 0;
  sim::Addr head_ = 0;
  std::vector<sim::Addr> seq_;
  std::vector<sim::Addr> val_;
  std::uint32_t capacity_ = 0;
};

}  // namespace colibri::workloads
