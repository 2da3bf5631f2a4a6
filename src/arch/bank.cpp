#include "arch/bank.hpp"

#include <utility>

#include "arch/system.hpp"
#include "fault/fault.hpp"
#include "obs/hooks.hpp"
#include "sim/check.hpp"

namespace colibri::arch {

Bank::Bank(sim::Engine& engine, Network& net, System& sys,
           const SystemConfig& cfg, BankId id, Word* spm,
           fault::FaultPlan* fault, const obs::SimHooks* hooks)
    : engine_(engine),
      net_(net),
      sys_(sys),
      link_(net.bankLink(id)),
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

void Bank::receive(const MemRequest& req) {
  const sim::Cycle at = engine_.now();
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
  engine_.scheduleAt(serveAt, std::move(serve));
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
  const sim::Cycle arriveAt = net_.routeResponse(link_, c, engine_.now());
  if (hooks_ != nullptr && hooks_->tracer != nullptr) {
    hooks_->tracer->onRespond(c, engine_.now());
  }
  auto arrive = [this, c, r] { sys_.deliverResponse(c, r); };
  engine_.scheduleAt(arriveAt, std::move(arrive));
}

void Bank::sendSuccessorUpdate(CoreId target, CoreId successor, Addr /*a*/,
                               bool successorIsMwait) {
  // The Qnode needs only the successor; the address stays behind.
  const sim::Cycle arriveAt = net_.routeResponse(link_, target, engine_.now());
  auto arrive = [this, target, successor, successorIsMwait] {
    sys_.deliverSuccessorUpdate(target, successor, successorIsMwait);
  };
  engine_.scheduleAt(arriveAt, std::move(arrive));
}

void Bank::resetStats() {
  stats_.reset();
  port_.resetStats();
  adapter_->mutableStats().reset();
}

}  // namespace colibri::arch
