// Colibri memory-controller adapter (paper Section IV).
//
// Instead of a full reservation queue, the controller keeps only a small,
// parameterizable set of queue slots, each holding {address, head core,
// tail core, state}. Waiting cores form a distributed linked list through
// their Qnodes:
//
//   LRwait to a new address   -> allocate a slot, grant immediately
//   LRwait to a queued address-> retarget tail, send SuccessorUpdate to the
//                                previous tail's Qnode (no response yet)
//   SCwait from the head      -> commit (if the reservation survived),
//                                answer with lastInQueue, and either free
//                                the slot (head == tail) or await the
//                                WakeUpRequest bounced via the head's Qnode
//   WakeUpRequest(successor)  -> advance head and serve the new head
//   Mwait                     -> like LRwait but the head sleeps until a
//                                write; a write drains the queue head-first
//
// The controller stores O(Q) state regardless of core count — the paper's
// linear-scaling argument. The successor's operation type (LRwait vs Mwait)
// travels inside SuccessorUpdate/WakeUpRequest so a woken head can be
// served without per-waiter storage (see memop.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atomics/adapter.hpp"

namespace colibri::atomics {

class ColibriAdapter final : public AtomicAdapter {
 public:
  ColibriAdapter(BankContext& ctx, std::uint32_t queuesPerController)
      : AtomicAdapter(ctx), slots_(queuesPerController) {}

  void handle(const MemRequest& req) override;
  void describeState(std::ostream& os) const override;

  // --- Introspection for tests & invariant checks -----------------------
  enum class SlotState : std::uint8_t {
    kFree,
    kGranted,          ///< head holds an LRwait grant (or cascade grant)
    kMwaitMonitoring,  ///< head is an Mwait waiting for a write
    kAwaitingWakeUp,   ///< head dequeued; WakeUpRequest in flight
  };

  struct Slot {
    SlotState state = SlotState::kFree;
    Addr addr = 0;
    CoreId head = sim::kNoCore;
    CoreId tail = sim::kNoCore;
    bool resvValid = false;  // meaningful in kGranted
  };

  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] std::size_t freeSlots() const;
  /// The core currently granted on `a`, if any (for mutual-exclusion checks).
  [[nodiscard]] std::optional<CoreId> grantedCore(Addr a) const;

 private:
  void onWrite(Addr a) override;

  [[nodiscard]] Slot* find(Addr a);
  [[nodiscard]] Slot* allocate();

  void handleWait(const MemRequest& req);
  void handleScWait(const MemRequest& req);
  void handleWakeUp(const MemRequest& req);

  /// Serve `core` as the new head of `slot` after a queue advance. A write
  /// necessarily happened since the core enqueued (SCwait commit or the
  /// store that triggered an Mwait drain), so Mwaits are answered
  /// immediately; LRwaits get a grant with a fresh reservation.
  void serveNewHead(Slot& slot, CoreId core, bool isMwait);

  std::vector<Slot> slots_;
};

}  // namespace colibri::atomics
