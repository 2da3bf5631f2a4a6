#include "atomics/lrsc_single.hpp"

#include <ostream>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace colibri::atomics {

void LrscSingleAdapter::handle(const MemRequest& req) {
  if (fault::FaultPlan* fp = ctx_.faultPlan();
      fp != nullptr && valid_ &&
      fp->evict(ctx_.bankId(), req.core, ctx_.now())) {
    // Injected eviction: the held reservation is dropped before this
    // request is processed. The owner's next SC fails and its retry loop
    // re-grants — faults cost retries, never correctness.
    valid_ = false;
  }
  if (handleBasic(req)) {
    return;
  }
  switch (req.kind) {
    case OpKind::kLr: {
      // Take the slot only if it is free (or already ours — re-LR moves
      // the reservation). A busy slot stays with its owner; the newcomer
      // reads the value but will fail its SC.
      if (!valid_ || core_ == req.core) {
        valid_ = true;
        core_ = req.core;
        addr_ = req.addr;
        ++stats_.lrGrants;
      } else {
        ++stats_.lrFails;  // no reservation placed
      }
      ctx_.respond(req.core, MemResponse{ctx_.read(req.addr), true, true});
      return;
    }
    case OpKind::kSc: {
      bool success = valid_ && core_ == req.core && addr_ == req.addr;
      if (success) {
        if (fault::FaultPlan* fp = ctx_.faultPlan();
            fp != nullptr &&
            fp->scFail(ctx_.bankId(), req.core, req.addr, ctx_.now())) {
          // Spurious SC failure: the commit is dropped as if the
          // reservation had just been invalidated; the slot frees and the
          // owner retries.
          success = false;
        }
      }
      if (success) {
        valid_ = false;
        commit(req);
      } else {
        if (valid_ && core_ == req.core) {
          valid_ = false;  // own SC to the wrong address frees the slot
        }
        ++stats_.scFailures;
      }
      ctx_.respond(req.core, MemResponse{0, success, true});
      return;
    }
    default:
      COLIBRI_CHECK_MSG(false, "LrscSingleAdapter cannot handle op "
                                   << arch::toString(req.kind));
  }
}

void LrscSingleAdapter::commit(const MemRequest& req) {
  ++stats_.scSuccesses;
  ctx_.writeRaw(req.addr, req.value);
  onWrite(req.addr);
}

void LrscSingleAdapter::onWrite(Addr a) {
  if (valid_ && addr_ == a) {
    valid_ = false;
  }
}

void LrscSingleAdapter::describeState(std::ostream& os) const {
  if (valid_) {
    os << "reservation slot held by core " << core_ << " on addr " << addr_;
  } else {
    os << "reservation slot free";
  }
}

}  // namespace colibri::atomics
