#include "sync/atomic.hpp"

#include "obs/hooks.hpp"
#include "sim/check.hpp"

namespace colibri::sync {

namespace {

using arch::MemRequest;
using arch::OpKind;
using arch::Resume;

/// Count one retry loop iteration (SC failure or queue-full LR) against
/// the issuing core. A CAS value mismatch is a *result*, not a retry.
void countRetry(Core& core, bool cas) {
  if (const obs::SimHooks* h = core.obsHooks()) {
    h->add(cas ? h->casRetries : h->rmwRetries);
  }
}

}  // namespace

const char* toString(RmwFlavor f) {
  switch (f) {
    case RmwFlavor::kAmo:
      return "amo";
    case RmwFlavor::kLrsc:
      return "lrsc";
    case RmwFlavor::kLrscWait:
      return "lrscwait";
  }
  return "?";
}

/// The steps of every flavor's loop. Each callback runs when the core has
/// finished the op or delay before it, and issues the next one in the same
/// event, at the same point, as a coroutine awaiting each op in turn would:
/// so every event keeps its place in the (when, seq) order. `cas_` selects
/// compareAndSwap's branches.
struct RmwSteps {
  using Step = void (*)(void*);

  static RmwLoop& of(void* p) { return *static_cast<RmwLoop*>(p); }

  static void issue(RmwLoop& l, OpKind k, Word v, Step next) {
    l.core_.issue(MemRequest{l.addr_, v, l.core_.id(), k, false},
                  Resume{next, &l}, &l.resp_);
  }
  /// Run `next` after `n` cycles of compute; a zero-cycle wait runs it now
  /// and schedules no event.
  static void wait(RmwLoop& l, sim::Cycle n, Step next) {
    if (n == 0) {
      next(&l);
    } else {
      l.core_.delayed(n, Resume{next, &l});
    }
  }
  /// Resume the caller, which may destroy `l`.
  static void finish(RmwLoop& l, Word v, bool ok) {
    l.value_ = v;
    l.ok_ = ok;
    l.caller_.resume();
  }
  static bool abandoned(const RmwLoop& l) {
    return l.abandon_ != nullptr && *l.abandon_;
  }
  /// The value the store half writes.
  static Word stored(const RmwLoop& l) {
    return l.cas_ ? l.operand_ : l.value_ + l.operand_;
  }

  static void amoDone(void* p) {
    RmwLoop& l = of(p);
    finish(l, l.resp_.value, true);
  }

  // --- LR/SC: LR -> compute -> SC, backoff and retry on a failed SC -------
  static void lr(RmwLoop& l) { issue(l, OpKind::kLr, 0, &lrDone); }
  static void lrDone(void* p) {
    RmwLoop& l = of(p);
    l.value_ = l.resp_.value;
    if (l.cas_ && l.value_ != l.expected_) {
      // RISC-V allows abandoning an LR without an SC, but bank-side
      // reservation slots (lrsc_single) do not: a granted LR holds the
      // bank's only slot, and a caller that walks away for good — the
      // deque owner losing its last-element race, say — strands it,
      // deadlocking every later SC to that address. Close the pair by
      // storing the observed value back: our own SC frees the slot with
      // a no-op write, and if the slot was never ours it simply fails.
      // (The wait flavor yields its queue the same way.)
      issue(l, OpKind::kSc, l.value_, &closed);
      return;
    }
    wait(l, kRmwComputeCycles, &computed);
  }
  static void computed(void* p) {
    RmwLoop& l = of(p);
    issue(l, OpKind::kSc, stored(l), &scDone);
  }
  static void scDone(void* p) {
    RmwLoop& l = of(p);
    if (l.resp_.ok) {
      finish(l, l.value_, true);
      return;
    }
    // Failed SC: the retry loop the paper sets out to eliminate.
    countRetry(l.core_, l.cas_);
    wait(l, l.backoff_.next(), &backedOff);
  }
  static void backedOff(void* p) {
    RmwLoop& l = of(p);
    if (abandoned(l)) {
      finish(l, l.cas_ ? l.value_ : 0, false);
      return;
    }
    lr(l);
  }
  /// A CAS mismatch closed its pair: report the observed value.
  static void closed(void* p) {
    RmwLoop& l = of(p);
    finish(l, l.value_, false);
  }

  // --- LRwait/SCwait: LRwait -> compute -> SCwait -------------------------
  static void lrWait(RmwLoop& l) { issue(l, OpKind::kLrWait, 0, &lrWaitDone); }
  static void lrWaitDone(void* p) {
    RmwLoop& l = of(p);
    if (!l.resp_.ok) {
      // Reservation queue full (LRSCwait_q / Colibri with too few slots):
      // immediate fail, retry after backoff. We were never enqueued, so
      // abandoning here is legal.
      countRetry(l.core_, l.cas_);
      wait(l, l.backoff_.next(), &queueBackedOff);
      return;
    }
    l.value_ = l.resp_.value;
    wait(l, kRmwComputeCycles, &waitComputed);
  }
  static void queueBackedOff(void* p) {
    RmwLoop& l = of(p);
    if (abandoned(l)) {
      finish(l, 0, false);
      return;
    }
    lrWait(l);
  }
  static void waitComputed(void* p) {
    RmwLoop& l = of(p);
    if (l.cas_ && l.value_ != l.expected_) {
      // Every granted LRwait must be closed with an SCwait so the
      // distributed queue advances (Section III constraint b): store the
      // unchanged value back to yield the queue.
      issue(l, OpKind::kScWait, l.value_, &closed);
      return;
    }
    issue(l, OpKind::kScWait, stored(l), &scWaitDone);
  }
  static void scWaitDone(void* p) {
    RmwLoop& l = of(p);
    if (l.resp_.ok) {
      finish(l, l.value_, true);
      return;
    }
    // SCwait can only fail if a plain store slipped in between; the queue
    // already advanced past us, so re-enqueue.
    lrWait(l);
  }
};

void RmwLoop::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  switch (flavor_) {
    case RmwFlavor::kAmo:
      COLIBRI_CHECK_MSG(!cas_, "CAS needs a reservation pair (LR/SC or "
                               "LRwait/SCwait)");
      RmwSteps::issue(*this, OpKind::kAmoAdd, operand_, &RmwSteps::amoDone);
      return;
    case RmwFlavor::kLrsc:
      RmwSteps::lr(*this);
      return;
    case RmwFlavor::kLrscWait:
      break;
  }
  RmwSteps::lrWait(*this);
}

}  // namespace colibri::sync
