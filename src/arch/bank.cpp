#include "arch/bank.hpp"

#include <utility>

#include "arch/system.hpp"
#include "fault/fault.hpp"
#include "obs/hooks.hpp"
#include "sim/check.hpp"

namespace colibri::arch {

Bank::Bank(System& sys, const SystemConfig& cfg, BankId id, Word* spm,
           fault::FaultPlan* fault, const obs::SimHooks* hooks)
    : sys_(sys),
      link_(sys.network().bankLink(id)),
      numCores_(cfg.numCores),
      map_(cfg),
      spm_(spm),
      hooks_(hooks) {
  faultPlan_ = fault;
  adapter_ = atomics::makeAdapter(cfg, *this);
}

void Bank::checkOwned(Addr a) const {
  COLIBRI_CHECK_MSG(map_.bankOf(a) == bankId(),
                    "address " << a << " does not map to bank " << bankId());
  COLIBRI_CHECK(a < map_.numWords());
}

sim::Cycle Bank::now() const { return sys_.now(); }

void Bank::receive(const MemRequest& req) {
  const sim::Cycle at = sys_.now();
  const sim::Cycle grant = port_.acquire(at);
  sim::Cycle serveAt = grant;
  if (faultPlan_ != nullptr) {
    // Transient service stall: extra cycles between the port grant and the
    // adapter. The port itself is untouched (its grant sequence stays
    // exactly as without faults); the clamp keeps service in order, so a
    // stalled request delays everything granted behind it, like a
    // refresh-busy bank.
    serveAt += faultPlan_->stall(bankId(), req.core, grant);
    if (serveAt < lastServe_) {
      serveAt = lastServe_;
    }
    lastServe_ = serveAt;
  }
  if (hooks_ != nullptr && hooks_->tracer != nullptr &&
      expectsResponse(req.kind)) {
    hooks_->tracer->onBankArrive(req.core, bankId(), at, serveAt);
  }
  auto serve = [this, req] {
    ++stats_.requests;
    adapter_->handle(req);
  };
  sys_.engine().scheduleAt(serveAt, std::move(serve));
}

Word Bank::read(Addr a) const {
  checkOwned(a);
  return spm_[a];
}

void Bank::writeRaw(Addr a, Word v) {
  checkOwned(a);
  spm_[a] = v;
}

void Bank::respond(CoreId c, const MemResponse& r) {
  // Responses ride dedicated return paths (no shared stages), so the
  // arrival cycle is fully determined at send time.
  const sim::Cycle at = sys_.now();
  const sim::Cycle arriveAt = sys_.network().routeResponse(link_, c, at);
  if (hooks_ != nullptr && hooks_->tracer != nullptr) {
    hooks_->tracer->onRespond(c, at);
  }
  auto arrive = [this, c, r] { sys_.deliverResponse(c, r); };
  sys_.engine().scheduleAt(arriveAt, std::move(arrive));
}

void Bank::sendSuccessorUpdate(CoreId target, CoreId successor,
                               bool successorIsMwait) {
  const sim::Cycle arriveAt =
      sys_.network().routeResponse(link_, target, sys_.now());
  auto arrive = [this, target, successor, successorIsMwait] {
    sys_.deliverSuccessorUpdate(target, successor, successorIsMwait);
  };
  sys_.engine().scheduleAt(arriveAt, std::move(arrive));
}

void Bank::resetStats() {
  stats_.reset();
  port_.resetStats();
  adapter_->mutableStats().reset();
}

}  // namespace colibri::arch
