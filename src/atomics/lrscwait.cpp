#include "atomics/lrscwait.hpp"

#include <algorithm>
#include <ostream>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace colibri::atomics {

bool LrscWaitAdapter::hasEarlierForAddr(std::size_t i, Addr a) const {
  return std::any_of(queue_.begin(), queue_.begin() + i,
                     [a](const Entry& e) { return e.addr == a; });
}

bool LrscWaitAdapter::serve(std::size_t i) {
  Entry& e = queue_[i];
  COLIBRI_CHECK(!e.served);
  if (e.isMwait) {
    const Word cur = ctx_.read(e.addr);
    if (cur != e.expected) {
      // The change already happened: notify immediately (Section III-C).
      ++stats_.mwaitWakes;
      ctx_.respond(e.core, MemResponse{cur, true, true});
      queue_.erase(queue_.begin() + i);
      return true;
    }
    e.served = true;  // monitoring; a write will wake it
    return false;
  }
  // LRwait: grant — respond with the current value and hold a reservation.
  e.served = true;
  e.resvValid = true;
  ++stats_.lrGrants;
  ctx_.respond(e.core, MemResponse{ctx_.read(e.addr), true, true});
  return false;
}

void LrscWaitAdapter::pump() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (!queue_[i].served && !hasEarlierForAddr(i, queue_[i].addr)) {
        if (serve(i)) {
          progressed = true;  // entry removed; rescan
          break;
        }
      }
    }
  }
}

void LrscWaitAdapter::handle(const MemRequest& req) {
  if (fault::FaultPlan* fp = ctx_.faultPlan();
      fp != nullptr && fp->evict(ctx_.bankId(), req.core, ctx_.now())) {
    // Injected eviction: invalidate the reservation of a served LRwait
    // (never erase the entry — the queue's SCwait-matching invariant
    // stays intact). The holder's SCwait fails and its loop re-enqueues.
    for (Entry& e : queue_) {
      if (e.served && !e.isMwait && e.resvValid) {
        e.resvValid = false;
        break;
      }
    }
  }
  if (handleBasic(req)) {
    return;
  }
  switch (req.kind) {
    case OpKind::kLrWait:
    case OpKind::kMwait: {
      if (queue_.size() >= capacity_) {
        // Full queue: immediate failure, the core retries (Section III-B).
        ++stats_.lrFails;
        ctx_.respond(req.core, MemResponse{0, false, true});
        return;
      }
      Entry e;
      e.core = req.core;
      e.addr = req.addr;
      e.isMwait = req.kind == OpKind::kMwait;
      e.expected = req.value;
      queue_.push_back(e);
      pump();
      return;
    }
    case OpKind::kScWait: {
      // The issuer must hold the served LRwait for this address: the
      // adapter granted it exclusively, so anything else is a protocol bug.
      auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Entry& e) {
        return e.core == req.core && e.addr == req.addr && !e.isMwait;
      });
      COLIBRI_CHECK_MSG(it != queue_.end() && it->served,
                        "SCwait without a served LRwait (core "
                            << req.core << ", addr " << req.addr << ")");
      bool success = it->resvValid;
      if (success) {
        if (fault::FaultPlan* fp = ctx_.faultPlan();
            fp != nullptr &&
            fp->scFail(ctx_.bankId(), req.core, req.addr, ctx_.now())) {
          // Spurious SCwait failure: the grant is consumed without a
          // commit; the holder's loop re-enqueues an LRwait.
          success = false;
        }
      }
      queue_.erase(it);
      if (success) {
        ++stats_.scSuccesses;
        ctx_.writeRaw(req.addr, req.value);
      } else {
        ++stats_.scFailures;
      }
      // Respond to the SCwait first, then let the commit wake monitors and
      // the dequeue serve the next waiter (in-order response stream).
      ctx_.respond(req.core, MemResponse{0, success, true});
      if (success) {
        onWrite(req.addr);
      }
      pump();
      return;
    }
    default:
      COLIBRI_CHECK_MSG(false, "LrscWaitAdapter cannot handle op "
                                   << arch::toString(req.kind));
  }
}

void LrscWaitAdapter::onWrite(Addr a) {
  // Invalidate the served LRwait reservation (its SCwait will fail) and
  // wake every queued Mwait on this address with the freshly written value.
  const Word cur = ctx_.read(a);
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->addr != a) {
      ++it;
      continue;
    }
    if (it->isMwait) {
      ++stats_.mwaitWakes;
      ctx_.respond(it->core, MemResponse{cur, true, true});
      it = queue_.erase(it);
      continue;
    }
    if (it->served) {
      it->resvValid = false;
    }
    ++it;
  }
  pump();
}

void LrscWaitAdapter::describeState(std::ostream& os) const {
  os << queue_.size() << " of " << capacity_ << " queue entries used";
  bool any = false;
  for (const Entry& e : queue_) {
    if (e.served && !e.isMwait && e.resvValid) {
      os << (any ? "," : "; grants:") << " core " << e.core << " on addr "
         << e.addr;
      any = true;
    }
  }
}

bool LrscWaitAdapter::holdsGrant(CoreId core, Addr a) const {
  return std::any_of(queue_.begin(), queue_.end(), [&](const Entry& e) {
    return e.core == core && e.addr == a && !e.isMwait && e.served &&
           e.resvValid;
  });
}

}  // namespace colibri::atomics
