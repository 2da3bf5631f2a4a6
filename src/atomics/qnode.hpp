// Colibri queue node (Qnode): the per-core hardware node of the distributed
// reservation queue (paper Section IV).
//
// Each core owns exactly one Qnode, which is sufficient because a core can
// have at most one outstanding LRwait/Mwait; it lives in the core's own
// record (arch::Core). The Qnode:
//   - records this core's position metadata (which address it queued on,
//     and whether the wait is an Mwait),
//   - accepts SuccessorUpdates from memory controllers — even while the
//     core sleeps — storing the successor core id and its operation type,
//   - dispatches a WakeUpRequest to the memory controller when the local
//     core's SCwait passes by (or, for Mwait, when the wake response
//     arrives), or *bounces* a late SuccessorUpdate straight back as a
//     WakeUpRequest if the SCwait already went past (Section IV-A.1).
//
// The Qnode is a pure state machine: it knows neither its core nor the
// network. A handler that dispatches returns the WakeUp to send, and the
// core injects it on its own network request path, so protocol messages
// contend for the same links and bank ports as ordinary traffic.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace colibri::atomics {

using sim::CoreId;

/// A WakeUpRequest a Qnode handler dispatches: wake `successor` (a wait of
/// the given kind) in the queue of the bank owning `addr`. Converts to
/// false when there is nothing to send.
struct WakeUp {
  sim::Addr addr = 0;
  CoreId successor = sim::kNoCore;
  bool successorIsMwait = false;

  explicit operator bool() const { return successor != sim::kNoCore; }
};

class Qnode {
 public:
  enum class State : std::uint8_t {
    kIdle,        ///< not in any queue
    kQueued,      ///< LRwait/Mwait outstanding or granted
    kOwesWakeup,  ///< dequeued locally; must forward a WakeUpRequest to the
                  ///< controller as soon as the successor becomes known
  };

  // --- Local core events -------------------------------------------------
  void onWaitIssued(sim::Addr addr, bool isMwait);
  void onLrWaitResponse(bool admitted);
  [[nodiscard]] WakeUp onScWaitIssued();
  void onScWaitResponse(bool lastInQueue);
  [[nodiscard]] WakeUp onMwaitResponse(bool admitted, bool lastInQueue);

  // --- Network events ----------------------------------------------------
  [[nodiscard]] WakeUp onSuccessorUpdate(CoreId successor,
                                         bool successorIsMwait);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool hasSuccessor() const {
    return successor_ != sim::kNoCore;
  }
  [[nodiscard]] CoreId successor() const { return successor_; }

 private:
  /// Hand the known successor on as a WakeUp and return to idle.
  [[nodiscard]] WakeUp dispatchWakeUp();

  sim::Addr addr_ = 0;
  CoreId successor_ = sim::kNoCore;
  State state_ = State::kIdle;
  bool isMwait_ = false;
  bool successorIsMwait_ = false;
};

}  // namespace colibri::atomics
