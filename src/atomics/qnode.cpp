#include "atomics/qnode.hpp"

#include "sim/check.hpp"

namespace colibri::atomics {

void Qnode::onWaitIssued(sim::Addr addr, bool isMwait) {
  COLIBRI_CHECK_MSG(state_ == State::kIdle,
                    "wait issued with one outstanding"
                        << " (deadlock-freedom constraint, Sec. III)");
  state_ = State::kQueued;
  addr_ = addr;
  isMwait_ = isMwait;
  successor_ = sim::kNoCore;
  successorIsMwait_ = false;
}

void Qnode::onLrWaitResponse(bool admitted) {
  COLIBRI_CHECK(state_ == State::kQueued && !isMwait_);
  if (!admitted) {
    // Queue-full immediate fail: the core was never enqueued.
    COLIBRI_CHECK(successor_ == sim::kNoCore);
    state_ = State::kIdle;
  }
  // On a grant the Qnode stays kQueued until the SCwait passes.
}

WakeUp Qnode::onScWaitIssued() {
  COLIBRI_CHECK_MSG(state_ == State::kQueued && !isMwait_,
                    "SCwait without matching LRwait at its Qnode");
  if (hasSuccessor()) {
    // "Immediately after an SCwait passes the Qnode, it sends a
    // WakeUpRequest containing its successor" (Section IV). It follows the
    // SCwait on the same core->bank path, so FIFO keeps them ordered.
    return dispatchWakeUp();
  }
  state_ = State::kOwesWakeup;
  return {};
}

void Qnode::onScWaitResponse(bool lastInQueue) {
  if (state_ == State::kIdle) {
    // WakeUp already dispatched (successor was known at SCwait time, or a
    // SuccessorUpdate bounced in between); nothing left to do.
    return;
  }
  COLIBRI_CHECK(state_ == State::kOwesWakeup);
  if (lastInQueue) {
    // The controller freed the queue slot; nobody was appended behind us.
    state_ = State::kIdle;
  }
  // Otherwise a SuccessorUpdate is in flight and will bounce as a WakeUp.
}

WakeUp Qnode::onMwaitResponse(bool admitted, bool lastInQueue) {
  COLIBRI_CHECK(state_ == State::kQueued && isMwait_);
  if (!admitted || lastInQueue) {
    state_ = State::kIdle;
    return {};
  }
  // Wake the successor: this is how a write drains the whole Mwait queue
  // "without any interference from the cores" (Section IV-B).
  if (hasSuccessor()) {
    return dispatchWakeUp();
  }
  state_ = State::kOwesWakeup;
  return {};
}

WakeUp Qnode::onSuccessorUpdate(CoreId successor, bool successorIsMwait) {
  COLIBRI_CHECK_MSG(state_ != State::kIdle, "SuccessorUpdate to idle Qnode");
  successor_ = successor;
  successorIsMwait_ = successorIsMwait;
  if (state_ == State::kOwesWakeup) {
    // The local dequeue already happened: bounce back as a WakeUpRequest
    // (Section IV-A.1).
    return dispatchWakeUp();
  }
  return {};
}

WakeUp Qnode::dispatchWakeUp() {
  COLIBRI_CHECK(hasSuccessor());
  const WakeUp w{addr_, successor_, successorIsMwait_};
  successor_ = sim::kNoCore;
  successorIsMwait_ = false;
  state_ = State::kIdle;
  return w;
}

}  // namespace colibri::atomics
