// Colibri queue node (Qnode): the per-core hardware node of the distributed
// reservation queue (paper Section IV).
//
// Each core owns exactly one Qnode, which is sufficient because a core can
// have at most one outstanding LRwait/Mwait. The Qnode:
//   - records this core's position metadata (which bank/address it queued
//     on, and whether the wait is an Mwait),
//   - accepts SuccessorUpdates from memory controllers — even while the
//     core sleeps — storing the successor core id and its operation type,
//   - dispatches a WakeUpRequest to the memory controller when the local
//     core's SCwait passes by (or, for Mwait, when the wake response
//     arrives), or *bounces* a late SuccessorUpdate straight back as a
//     WakeUpRequest if the SCwait already went past (Section IV-A.1).
//
// The Qnode emits WakeUpRequests through one call into its WakeUpSink (the
// System), which injects them on the core's network request path, so
// protocol messages contend for the same links and bank ports as ordinary
// traffic.
#pragma once

#include <cstdint>

#include "arch/memop.hpp"
#include "sim/check.hpp"
#include "sim/types.hpp"

namespace colibri::atomics {

using sim::CoreId;

/// Where Qnodes send their WakeUpRequests.
class WakeUpSink {
 public:
  /// Inject a kWakeUp request from core `from` naming `successor` towards
  /// the bank owning `addr`.
  virtual void sendWakeUp(CoreId from, CoreId successor,
                          bool successorIsMwait, sim::Addr addr) = 0;

 protected:
  ~WakeUpSink() = default;
};

class Qnode {
 public:
  enum class State : std::uint8_t {
    kIdle,        ///< not in any queue
    kQueued,      ///< LRwait/Mwait outstanding or granted
    kOwesWakeup,  ///< dequeued locally; must forward a WakeUpRequest to the
                  ///< controller as soon as the successor becomes known
  };

  /// `sink` receives this Qnode's WakeUpRequests; a Qnode without one
  /// (any adapter but Colibri) must never dispatch.
  Qnode(CoreId core, WakeUpSink* sink)
      : sink_(sink), core_(core) {}

  // --- Local core events -------------------------------------------------
  void onWaitIssued(sim::Addr addr, bool isMwait);
  void onLrWaitResponse(bool admitted);
  void onScWaitIssued();
  void onScWaitResponse(bool lastInQueue);
  void onMwaitResponse(bool admitted, bool lastInQueue);

  // --- Network events ----------------------------------------------------
  void onSuccessorUpdate(CoreId successor, bool successorIsMwait);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool hasSuccessor() const {
    return successor_ != sim::kNoCore;
  }
  [[nodiscard]] CoreId successor() const { return successor_; }

 private:
  void dispatchWakeUp();

  WakeUpSink* sink_;
  sim::Addr addr_ = 0;
  CoreId core_;
  CoreId successor_ = sim::kNoCore;
  State state_ = State::kIdle;
  bool isMwait_ = false;
  bool successorIsMwait_ = false;
};

}  // namespace colibri::atomics
