#include "atomics/colibri.hpp"

#include <ostream>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace colibri::atomics {

ColibriAdapter::Slot* ColibriAdapter::find(Addr a) {
  for (Slot& s : slots_) {
    if (s.state != SlotState::kFree && s.addr == a) {
      return &s;
    }
  }
  return nullptr;
}

ColibriAdapter::Slot* ColibriAdapter::allocate() {
  for (Slot& s : slots_) {
    if (s.state == SlotState::kFree) {
      return &s;
    }
  }
  return nullptr;
}

void ColibriAdapter::handle(const MemRequest& req) {
  if (handleBasic(req)) {
    return;
  }
  switch (req.kind) {
    case OpKind::kLrWait:
    case OpKind::kMwait:
      handleWait(req);
      return;
    case OpKind::kScWait:
      handleScWait(req);
      return;
    case OpKind::kWakeUp:
      handleWakeUp(req);
      return;
    default:
      COLIBRI_CHECK_MSG(false, "ColibriAdapter cannot handle op "
                                   << arch::toString(req.kind)
                                   << " (plain LR/SC not supported; use the"
                                      " wait pair)");
  }
}

void ColibriAdapter::handleWait(const MemRequest& req) {
  const bool isMwait = req.kind == OpKind::kMwait;
  if (Slot* s = find(req.addr)) {
    // Queue exists: append by retargeting the tail and linking the previous
    // tail's Qnode to us. No response — the core sleeps.
    const CoreId prevTail = s->tail;
    s->tail = req.core;
    ++stats_.successorUpdates;
    ctx_.sendSuccessorUpdate(prevTail, req.core, req.addr, isMwait);
    return;
  }
  if (isMwait) {
    // Checked before taking a slot: a waiter whose value has already
    // changed needs no slot, so a full queue cannot hide the write from it.
    const Word cur = ctx_.read(req.addr);
    if (cur != req.value) {
      // Value already changed: notify immediately, nothing to enqueue.
      ++stats_.mwaitWakes;
      ctx_.respond(req.core, MemResponse{cur, true, true});
      return;
    }
  }
  Slot* s = allocate();
  if (s == nullptr) {
    // All head/tail register pairs busy: immediate fail, software retries.
    ++stats_.lrFails;
    ctx_.respond(req.core, MemResponse{0, false, true});
    return;
  }
  if (isMwait) {
    *s = Slot{SlotState::kMwaitMonitoring, req.addr, req.core, req.core,
              false};
    return;  // head sleeps until a write
  }
  *s = Slot{SlotState::kGranted, req.addr, req.core, req.core, true};
  ++stats_.lrGrants;
  ctx_.respond(req.core, MemResponse{ctx_.read(req.addr), true, true});
}

void ColibriAdapter::handleScWait(const MemRequest& req) {
  Slot* s = find(req.addr);
  COLIBRI_CHECK_MSG(s != nullptr && s->state == SlotState::kGranted &&
                        s->head == req.core,
                    "SCwait from core " << req.core << " to addr " << req.addr
                                        << " without a grant");
  bool success = s->resvValid;
  if (success) {
    if (fault::FaultPlan* fp = ctx_.faultPlan();
        fp != nullptr &&
        fp->scFail(ctx_.bankId(), req.core, req.addr, ctx_.now())) {
      // Spurious SCwait failure: the commit is dropped but the queue still
      // advances (the protocol's hand-over is unconditional), so the head
      // simply retries through software. No eviction site here: Colibri's
      // reservations live in the distributed queue, not a shared table.
      success = false;
    }
  }
  const bool last = s->tail == req.core;
  if (success) {
    ++stats_.scSuccesses;
    ctx_.writeRaw(req.addr, req.value);
    // Invalidation hook: the only slot on this address is `s`, which is
    // being advanced anyway, but stores to *other* monitored addresses are
    // unaffected; onWrite keeps the bookkeeping uniform.
  } else {
    ++stats_.scFailures;
  }
  if (last) {
    *s = Slot{};  // head == tail: trivial dequeue, slot freed (Sec. IV-A.2)
  } else {
    // Temporarily invalidate the head; only the WakeUpRequest bounced
    // through our Qnode may install the successor.
    s->state = SlotState::kAwaitingWakeUp;
    s->head = sim::kNoCore;
    s->resvValid = false;
  }
  ctx_.respond(req.core, MemResponse{0, success, last});
}

void ColibriAdapter::handleWakeUp(const MemRequest& req) {
  ++stats_.wakeUpRequests;
  Slot* s = find(req.addr);
  COLIBRI_CHECK_MSG(s != nullptr && s->state == SlotState::kAwaitingWakeUp,
                    "WakeUpRequest for addr " << req.addr
                                              << " with no pending advance");
  serveNewHead(*s, static_cast<CoreId>(req.value), req.successorIsMwait);
}

void ColibriAdapter::serveNewHead(Slot& slot, CoreId core, bool isMwait) {
  slot.head = core;
  const bool last = slot.tail == core;
  if (isMwait) {
    // A write happened since this Mwait enqueued (it is only woken through
    // an SCwait commit or a store-triggered drain): answer immediately.
    ++stats_.mwaitWakes;
    ctx_.respond(core, MemResponse{ctx_.read(slot.addr), true, last});
    if (last) {
      slot = Slot{};
    } else {
      slot.state = SlotState::kAwaitingWakeUp;
      slot.head = sim::kNoCore;
    }
    return;
  }
  slot.state = SlotState::kGranted;
  slot.resvValid = true;
  ++stats_.lrGrants;
  ctx_.respond(core, MemResponse{ctx_.read(slot.addr), true, last});
}

void ColibriAdapter::onWrite(Addr a) {
  Slot* s = find(a);
  if (s == nullptr) {
    return;
  }
  switch (s->state) {
    case SlotState::kGranted:
      // The head's SCwait will now fail (mutual exclusion, Section III).
      s->resvValid = false;
      return;
    case SlotState::kMwaitMonitoring: {
      // Wake the sleeping head with the freshly written value; the rest of
      // the queue drains through Qnode WakeUpRequests.
      const CoreId head = s->head;
      const bool last = s->tail == head;
      ++stats_.mwaitWakes;
      ctx_.respond(head, MemResponse{ctx_.read(a), true, last});
      if (last) {
        *s = Slot{};
      } else {
        s->state = SlotState::kAwaitingWakeUp;
        s->head = sim::kNoCore;
      }
      return;
    }
    case SlotState::kAwaitingWakeUp:
    case SlotState::kFree:
      return;
  }
}

std::size_t ColibriAdapter::freeSlots() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    n += s.state == SlotState::kFree ? 1 : 0;
  }
  return n;
}

std::optional<CoreId> ColibriAdapter::grantedCore(Addr a) const {
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kGranted && s.addr == a) {
      return s.head;
    }
  }
  return std::nullopt;
}

namespace {
const char* toString(ColibriAdapter::SlotState s) {
  switch (s) {
    case ColibriAdapter::SlotState::kFree:
      return "free";
    case ColibriAdapter::SlotState::kGranted:
      return "granted";
    case ColibriAdapter::SlotState::kMwaitMonitoring:
      return "mwait-monitoring";
    case ColibriAdapter::SlotState::kAwaitingWakeUp:
      return "awaiting-wakeup";
  }
  return "?";
}
}  // namespace

void ColibriAdapter::describeState(std::ostream& os) const {
  os << (slots_.size() - freeSlots()) << " of " << slots_.size()
     << " queue slots busy";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.state == SlotState::kFree) {
      continue;
    }
    os << "; slot " << i << ": " << toString(s.state) << " addr " << s.addr
       << " head ";
    if (s.head == sim::kNoCore) {
      os << "none";
    } else {
      os << s.head;
    }
    os << " tail " << s.tail;
    if (s.state == SlotState::kGranted) {
      os << (s.resvValid ? " (reservation valid)" : " (reservation lost)");
    }
  }
}

}  // namespace colibri::atomics
