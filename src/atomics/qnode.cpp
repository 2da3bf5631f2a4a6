#include "atomics/qnode.hpp"

namespace colibri::atomics {

void Qnode::onWaitIssued(sim::Addr addr, bool isMwait) {
  COLIBRI_CHECK_MSG(state_ == State::kIdle,
                    "core " << core_ << " issued a wait with one outstanding"
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

void Qnode::onScWaitIssued() {
  COLIBRI_CHECK_MSG(state_ == State::kQueued && !isMwait_,
                    "SCwait without matching LRwait at Qnode " << core_);
  if (hasSuccessor()) {
    // "Immediately after an SCwait passes the Qnode, it sends a
    // WakeUpRequest containing its successor" (Section IV). It follows the
    // SCwait on the same core->bank path, so FIFO keeps them ordered.
    dispatchWakeUp();
    state_ = State::kIdle;
  } else {
    state_ = State::kOwesWakeup;
  }
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

void Qnode::onMwaitResponse(bool admitted, bool lastInQueue) {
  COLIBRI_CHECK(state_ == State::kQueued && isMwait_);
  if (!admitted || lastInQueue) {
    state_ = State::kIdle;
    return;
  }
  // Wake the successor: this is how a write drains the whole Mwait queue
  // "without any interference from the cores" (Section IV-B).
  if (hasSuccessor()) {
    dispatchWakeUp();
    state_ = State::kIdle;
  } else {
    state_ = State::kOwesWakeup;
  }
}

void Qnode::onSuccessorUpdate(CoreId successor, bool successorIsMwait) {
  COLIBRI_CHECK_MSG(state_ != State::kIdle,
                    "SuccessorUpdate to idle Qnode " << core_);
  successor_ = successor;
  successorIsMwait_ = successorIsMwait;
  if (state_ == State::kOwesWakeup) {
    // The local dequeue already happened: bounce back as a WakeUpRequest
    // (Section IV-A.1).
    dispatchWakeUp();
    state_ = State::kIdle;
  }
}

void Qnode::dispatchWakeUp() {
  COLIBRI_CHECK(hasSuccessor());
  COLIBRI_CHECK_MSG(sink_ != nullptr, "Qnode not wired");
  sink_->sendWakeUp(core_, successor_, successorIsMwait_, addr_);
  successor_ = sim::kNoCore;
  successorIsMwait_ = false;
}

}  // namespace colibri::atomics
