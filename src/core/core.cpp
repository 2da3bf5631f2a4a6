#include "core/core.hpp"

#include <utility>

#include "arch/system.hpp"
#include "obs/hooks.hpp"
#include "sim/check.hpp"

namespace colibri::arch {

namespace {

/// Minimum cycles between consecutive issues from one core (models the
/// single-issue pipeline; loop/branch overhead is added by workloads).
constexpr sim::Cycle kIssueInterval = 1;

}  // namespace

void Core::run(sim::Task task) {
  COLIBRI_CHECK_MSG(!task_.valid(), "core already has a task");
  task_ = std::move(task);
  task_.start();
}

const obs::SimHooks* Core::obsHooks() const { return sys_.obsHooks(); }

bool Core::colibri() const {
  return sys_.config().adapter == AdapterKind::kColibri;
}

sim::Cycle Core::nextIssueCycle() const {
  const Cycle now = sys_.engine().now();
  if (!hasIssued_) {
    return now;
  }
  const Cycle earliest = lastIssue_ + kIssueInterval;
  return earliest > now ? earliest : now;
}

sim::Cycle Core::claimIssueSlot(const MemRequest& req) {
  COLIBRI_CHECK_MSG(!hasOutstandingOp(),
                    "core " << id_ << " has an outstanding op (single-issue)");
  ++stats_.issued;

  const Cycle depart = nextIssueCycle();
  hasIssued_ = true;
  lastIssue_ = depart;

  // Tracing happens here, at issue time, never inside the departure
  // closures of post and issue — they must stay within the inline event
  // buffer.
  const obs::SimHooks* hooks = sys_.obsHooks();
  if (hooks != nullptr && hooks->tracer != nullptr) {
    if (req.kind == OpKind::kStore) {
      hooks->tracer->onPosted(id_, toString(req.kind), depart);
    } else {
      hooks->tracer->onIssue(id_, toString(req.kind), depart);
    }
  }
  return depart;
}

void Core::post(const MemRequest& req, std::coroutine_handle<> h) {
  const Cycle depart = claimIssueSlot(req);
  // Posted store: the request travels on its own; the core continues
  // right after the issue slot.
  auto depart_ev = [this, req, h] {
    sys_.injectRequest(id_, req);
    h.resume();
  };
  sys_.engine().scheduleAt(depart, std::move(depart_ev));
}

void Core::issue(const MemRequest& req, Resume k, MemResponse* out) {
  const Cycle depart = claimIssueSlot(req);
  pending_ = k;
  pendingOut_ = out;
  pendingKind_ = req.kind;
  pendingAddr_ = req.addr;

  auto depart_ev = [this, req] {
    pendingSince_ = sys_.engine().now();
    // The request passes the core's Qnode on its way out (Colibri only).
    // Wait registration happens before injection; the SCwait hook runs
    // *after* injection because it may dispatch a WakeUpRequest that must
    // follow the SCwait on the same core->bank FIFO path.
    if ((req.kind == OpKind::kLrWait || req.kind == OpKind::kMwait) &&
        colibri()) {
      queueNode_.onWaitIssued(req.addr, req.kind == OpKind::kMwait);
    }
    sys_.injectRequest(id_, req);
    if (req.kind == OpKind::kScWait && colibri()) {
      sendWakeUp(queueNode_.onScWaitIssued());
    }
  };
  sys_.engine().scheduleAt(depart, std::move(depart_ev));
}

void Core::complete(const MemResponse& r) {
  COLIBRI_CHECK_MSG(hasOutstandingOp(),
                    "response delivered to core " << id_
                                                  << " with no pending op");
  const Cycle waited = sys_.engine().now() - pendingSince_;
  if (arch::isSleepingWait(pendingKind_)) {
    stats_.sleepCycles += waited;
  } else {
    stats_.stallCycles += waited;
  }
  if (const obs::SimHooks* hooks = sys_.obsHooks()) {
    hooks->record(hooks->opLatency, waited);
    if (hooks->tracer != nullptr) {
      hooks->tracer->onComplete(id_, sys_.engine().now());
    }
  }

  if (colibri()) {
    switch (pendingKind_) {
      case OpKind::kLrWait:
        queueNode_.onLrWaitResponse(r.ok);
        break;
      case OpKind::kScWait:
        queueNode_.onScWaitResponse(r.lastInQueue);
        break;
      case OpKind::kMwait:
        sendWakeUp(queueNode_.onMwaitResponse(r.ok, r.lastInQueue));
        break;
      default:
        break;
    }
  }

  // Productive-retirement bookkeeping for the watchdog: reservation
  // acquires (LR/LRwait), failed SC/SCwait and Mwaits refused by a full
  // queue are the ops a livelocked retry loop retires forever, so they do
  // not count as progress.
  const OpKind kind = pendingKind_;
  const bool productive =
      kind != OpKind::kLr && kind != OpKind::kLrWait &&
      ((kind != OpKind::kSc && kind != OpKind::kScWait &&
        kind != OpKind::kMwait) ||
       r.ok);
  if (productive) {
    lastProductive_ = sys_.engine().now();
  }

  const Resume k = pending_;
  *pendingOut_ = r;
  pending_ = {};
  pendingOut_ = nullptr;
  k();
  task_.rethrowIfFailed();
}

void Core::onSuccessorUpdate(CoreId successor, bool successorIsMwait) {
  COLIBRI_CHECK_MSG(colibri(), "SuccessorUpdate to core "
                                   << id_ << " under adapter "
                                   << toString(sys_.config().adapter)
                                   << ": Qnode not wired (Colibri only)");
  sendWakeUp(queueNode_.onSuccessorUpdate(successor, successorIsMwait));
}

void Core::sendWakeUp(const atomics::WakeUp& w) {
  if (!w) {
    return;
  }
  const MemRequest wake{w.addr, static_cast<sim::Word>(w.successor), id_,
                        OpKind::kWakeUp, w.successorIsMwait};
  sys_.injectRequest(id_, wake);
}

void Core::delayed(Cycle n, Resume k) {
  stats_.computeCycles += n;
  // Compute occupies the issue pipeline: the next memory op cannot depart
  // before the computation ends.
  const Cycle done = sys_.engine().now() + n;
  const Cycle issueMark = done > kIssueInterval ? done - kIssueInterval : 0;
  if (!hasIssued_ || lastIssue_ < issueMark) {
    hasIssued_ = true;
    lastIssue_ = issueMark;
  }
  auto resume_ev = [this, k] {
    k();
    task_.rethrowIfFailed();
  };
  sys_.engine().scheduleAt(done, std::move(resume_ev));
}

}  // namespace colibri::arch
