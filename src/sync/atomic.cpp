#include "sync/atomic.hpp"

#include "obs/hooks.hpp"
#include "sim/check.hpp"

namespace colibri::sync {

namespace {

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

// Each flavor is its own coroutine: GCC sizes a frame for every awaiter
// and local of every branch, so one coroutine over all three flavors
// carried a frame several times larger than any one loop needs, and a
// sleeping core holds its frame for the whole wait.
namespace {

sim::Co<RmwResult> fetchAddAmo(Core& core, Addr a, Word delta) {
  const auto r = co_await core.amoAdd(a, delta);
  co_return RmwResult{r.value, true};
}

sim::Co<RmwResult> fetchAddLrsc(Core& core, Addr a, Word delta,
                                Backoff& backoff, const bool* abandon) {
  while (true) {
    const auto lr = co_await core.lr(a);
    co_await core.delay(kRmwComputeCycles);
    const auto sc = co_await core.sc(a, lr.value + delta);
    if (sc.ok) {
      co_return RmwResult{lr.value, true};
    }
    // Failed SC: the retry loop the paper sets out to eliminate.
    countRetry(core, /*cas=*/false);
    co_await core.delay(backoff.next());
    if (abandon != nullptr && *abandon) {
      co_return RmwResult{0, false};
    }
  }
}

sim::Co<RmwResult> fetchAddLrscWait(Core& core, Addr a, Word delta,
                                    Backoff& backoff, const bool* abandon) {
  while (true) {
    const auto lr = co_await core.lrWait(a);
    if (!lr.ok) {
      // Reservation queue full (LRSCwait_q / Colibri with too few slots):
      // immediate fail, retry after backoff. We were never enqueued, so
      // abandoning here is legal.
      countRetry(core, /*cas=*/false);
      co_await core.delay(backoff.next());
      if (abandon != nullptr && *abandon) {
        co_return RmwResult{0, false};
      }
      continue;
    }
    co_await core.delay(kRmwComputeCycles);
    const auto sc = co_await core.scWait(a, lr.value + delta);
    if (sc.ok) {
      co_return RmwResult{lr.value, true};
    }
    // SCwait can only fail if a plain store slipped in between; the queue
    // already advanced past us, so re-enqueue.
  }
}

sim::Co<CasResult> casLrsc(Core& core, Addr a, Word expected, Word desired,
                           Backoff& backoff, const bool* abandon) {
  while (true) {
    const auto lr = co_await core.lr(a);
    if (lr.value != expected) {
      // RISC-V allows abandoning an LR without an SC, but bank-side
      // reservation slots (lrsc_single) do not: a granted LR holds the
      // bank's only slot, and a caller that walks away for good — the
      // deque owner losing its last-element race, say — strands it,
      // deadlocking every later SC to that address. Close the pair by
      // storing the observed value back: our own SC frees the slot with
      // a no-op write, and if the slot was never ours it simply fails.
      // (The wait flavor yields its queue the same way.)
      (void)co_await core.sc(a, lr.value);
      co_return CasResult{lr.value, false};
    }
    co_await core.delay(kRmwComputeCycles);
    const auto sc = co_await core.sc(a, desired);
    if (sc.ok) {
      co_return CasResult{expected, true};
    }
    countRetry(core, /*cas=*/true);
    co_await core.delay(backoff.next());
    if (abandon != nullptr && *abandon) {
      co_return CasResult{lr.value, false};
    }
  }
}

// Every granted LRwait must be closed with an SCwait so the distributed
// queue advances (Section III constraint b) — on a value mismatch we store
// the *unchanged* value back to yield the queue.
sim::Co<CasResult> casLrscWait(Core& core, Addr a, Word expected,
                               Word desired, Backoff& backoff,
                               const bool* abandon) {
  while (true) {
    const auto lr = co_await core.lrWait(a);
    if (!lr.ok) {
      countRetry(core, /*cas=*/true);
      co_await core.delay(backoff.next());
      if (abandon != nullptr && *abandon) {
        co_return CasResult{0, false};
      }
      continue;
    }
    co_await core.delay(kRmwComputeCycles);
    if (lr.value != expected) {
      (void)co_await core.scWait(a, lr.value);  // yield the queue
      co_return CasResult{lr.value, false};
    }
    const auto sc = co_await core.scWait(a, desired);
    if (sc.ok) {
      co_return CasResult{expected, true};
    }
  }
}

}  // namespace

sim::Co<RmwResult> fetchAdd(Core& core, RmwFlavor flavor, Addr a, Word delta,
                            Backoff& backoff, const bool* abandon) {
  switch (flavor) {
    case RmwFlavor::kAmo:
      return fetchAddAmo(core, a, delta);
    case RmwFlavor::kLrsc:
      return fetchAddLrsc(core, a, delta, backoff, abandon);
    case RmwFlavor::kLrscWait:
      break;
  }
  return fetchAddLrscWait(core, a, delta, backoff, abandon);
}

sim::Co<CasResult> compareAndSwap(Core& core, RmwFlavor flavor, Addr a,
                                  Word expected, Word desired,
                                  Backoff& backoff, const bool* abandon) {
  COLIBRI_CHECK_MSG(flavor != RmwFlavor::kAmo,
                    "CAS needs a reservation pair (LR/SC or LRwait/SCwait)");
  if (flavor == RmwFlavor::kLrsc) {
    return casLrsc(core, a, expected, desired, backoff, abandon);
  }
  return casLrscWait(core, a, expected, desired, backoff, abandon);
}

}  // namespace colibri::sync
