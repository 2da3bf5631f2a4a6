#include "atomics/lrsc_table.hpp"

#include <algorithm>
#include <ostream>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace colibri::atomics {

std::vector<LrscTableAdapter::Entry>::iterator LrscTableAdapter::slotFor(
    CoreId c) {
  return std::lower_bound(
      held_.begin(), held_.end(), c,
      [](const Entry& e, CoreId core) { return e.core < core; });
}

void LrscTableAdapter::handle(const MemRequest& req) {
  if (fault::FaultPlan* fp = ctx_.faultPlan();
      fp != nullptr && fp->evict(ctx_.bankId(), req.core, ctx_.now())) {
    // Injected eviction: drop one held reservation, hash-picked among the
    // held entries in core order so churn spreads across cores. The
    // victim's SC fails and its retry loop re-grants.
    const auto held = static_cast<std::uint32_t>(held_.size());
    if (held > 0) {
      const std::uint32_t victim =
          fp->evictVictim(ctx_.bankId(), ctx_.now(), held);
      held_.erase(held_.begin() + victim);
    }
  }
  if (handleBasic(req)) {
    return;
  }
  switch (req.kind) {
    case OpKind::kLr: {
      COLIBRI_CHECK(req.core < ctx_.numCores());
      const auto it = slotFor(req.core);
      if (it != held_.end() && it->core == req.core) {
        it->addr = req.addr;
      } else {
        held_.insert(it, Entry{req.core, req.addr});
      }
      ++stats_.lrGrants;
      ctx_.respond(req.core, MemResponse{ctx_.read(req.addr), true, true});
      return;
    }
    case OpKind::kSc: {
      COLIBRI_CHECK(req.core < ctx_.numCores());
      const auto it = slotFor(req.core);
      const bool held = it != held_.end() && it->core == req.core;
      bool success = held && it->addr == req.addr;
      if (success) {
        if (fault::FaultPlan* fp = ctx_.faultPlan();
            fp != nullptr &&
            fp->scFail(ctx_.bankId(), req.core, req.addr, ctx_.now())) {
          success = false;  // spurious failure; the entry clears either way
        }
      }
      if (held) {
        held_.erase(it);
      }
      if (success) {
        ++stats_.scSuccesses;
        // Commit, then invalidate every other reservation on this address.
        ctx_.writeRaw(req.addr, req.value);
        onWrite(req.addr);
      } else {
        ++stats_.scFailures;
      }
      ctx_.respond(req.core, MemResponse{0, success, true});
      return;
    }
    default:
      COLIBRI_CHECK_MSG(false, "LrscTableAdapter cannot handle op "
                                   << arch::toString(req.kind));
  }
}

void LrscTableAdapter::onWrite(Addr a) {
  std::erase_if(held_, [a](const Entry& e) { return e.addr == a; });
}

void LrscTableAdapter::describeState(std::ostream& os) const {
  os << held_.size() << " of " << ctx_.numCores()
     << " reservation entries held";
  if (!held_.empty()) {
    os << " (cores:";
    for (const Entry& e : held_) {
      os << ' ' << e.core;
    }
    os << ')';
  }
}

}  // namespace colibri::atomics
