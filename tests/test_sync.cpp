// Synchronization layer tests: CAS semantics, the RMW primitives' retry
// paths (zero-cycle backoff, abandon), spin locks, MCS locks and barriers
// — all verified by protecting a deliberately non-atomic critical section
// and checking that no update is lost.
#include <gtest/gtest.h>

#include <string>

#include "arch/system.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"
#include "sync/atomic.hpp"
#include "sync/barrier.hpp"
#include "sync/mcs.hpp"
#include "sync/spinlock.hpp"

namespace colibri::sync {
namespace {

using arch::AdapterKind;
using arch::Core;
using arch::System;
using arch::SystemConfig;

SystemConfig withAdapter(AdapterKind k) {
  auto c = SystemConfig::smallTest();
  c.adapter = k;
  return c;
}

// --- CAS ---------------------------------------------------------------

sim::Task casOnce(System& sys, Core& core, sim::Addr a, sim::Word expected,
                  sim::Word desired, RmwFlavor flavor, CasResult* out) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  Backoff bo(BackoffPolicy::fixed(16), rng);
  *out = co_await compareAndSwap(core, flavor, a, expected, desired, bo);
}

class CasFlavors : public ::testing::TestWithParam<RmwFlavor> {
 protected:
  AdapterKind adapterFor(RmwFlavor f) {
    return f == RmwFlavor::kLrsc ? AdapterKind::kLrscTable
                                 : AdapterKind::kColibri;
  }
};

TEST_P(CasFlavors, SwapsOnMatch) {
  System sys(withAdapter(adapterFor(GetParam())));
  const auto a = sys.allocator().allocGlobal(1);
  sys.poke(a, 5);
  CasResult r;
  sys.spawn(0, casOnce(sys, sys.core(0), a, 5, 9, GetParam(), &r));
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(r.swapped);
  EXPECT_EQ(r.observed, 5u);
  EXPECT_EQ(sys.peek(a), 9u);
}

TEST_P(CasFlavors, FailsOnMismatchWithoutWriting) {
  System sys(withAdapter(adapterFor(GetParam())));
  const auto a = sys.allocator().allocGlobal(1);
  sys.poke(a, 7);
  CasResult r;
  sys.spawn(0, casOnce(sys, sys.core(0), a, 5, 9, GetParam(), &r));
  sys.run();
  sys.rethrowFailures();
  EXPECT_FALSE(r.swapped);
  EXPECT_EQ(r.observed, 7u);
  EXPECT_EQ(sys.peek(a), 7u);
}

TEST_P(CasFlavors, ContendedCasExactlyOneWinnerPerValue) {
  System sys(withAdapter(adapterFor(GetParam())));
  const auto a = sys.allocator().allocGlobal(1);
  sys.poke(a, 0);
  // 8 cores all try CAS(0 -> id+1): exactly one must win.
  std::vector<CasResult> results(8);
  for (sim::CoreId c = 0; c < 8; ++c) {
    sys.spawn(c, casOnce(sys, sys.core(c), a, 0, c + 1, GetParam(),
                         &results[c]));
  }
  sys.run();
  sys.rethrowFailures();
  int winners = 0;
  for (const auto& r : results) {
    winners += r.swapped ? 1 : 0;
  }
  EXPECT_EQ(winners, 1);
  EXPECT_NE(sys.peek(a), 0u);
}

INSTANTIATE_TEST_SUITE_P(Flavors, CasFlavors,
                         ::testing::Values(RmwFlavor::kLrsc,
                                           RmwFlavor::kLrscWait),
                         [](const auto& info) {
                           return test::paramName(toString(info.param));
                         });

// --- Retry paths of fetchAdd and compareAndSwap -------------------------
//
// Each case reaches its flavor's retry point on purpose: contending SCs
// fail on the LR/SC adapters, and a one-entry LRSCwait queue refuses
// LRwaits. The AMO flavor has no retry point.

struct RetryCase {
  const char* name;
  RmwFlavor flavor;
  AdapterKind adapter;
  bool cas;  ///< compareAndSwap instead of fetchAdd
};

void PrintTo(const RetryCase& c, std::ostream* os) { *os << c.name; }

SystemConfig retryConfig(const RetryCase& c, obs::Recorder* recorder) {
  auto cfg = withAdapter(c.adapter);
  cfg.lrscWaitQueueCapacity = 1;
  cfg.recorder = recorder;
  return cfg;
}

/// `iters` increments of *a, by fetchAdd or by a CAS loop, with a
/// zero-cycle backoff: a retry follows its failure in the same event.
sim::Task addWithoutBackoff(System& sys, Core& core, const RetryCase& c,
                            sim::Addr a, int iters) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  Backoff bo(BackoffPolicy::none(), rng);
  for (int i = 0; i < iters; ++i) {
    if (!c.cas) {
      EXPECT_TRUE((co_await fetchAdd(core, c.flavor, a, 1, bo)).performed);
      continue;
    }
    sim::Word seen = (co_await core.load(a)).value;
    while (true) {
      const auto r =
          co_await compareAndSwap(core, c.flavor, a, seen, seen + 1, bo);
      if (r.swapped) {
        break;
      }
      seen = r.observed;
    }
  }
}

/// fetchAdd(1), or CAS(0 -> 0), until `abandon` is set. The CAS value
/// never changes, so for both primitives a false result can only mean the
/// loop saw the flag after a backoff and gave up.
sim::Task rmwUntilAbandoned(System& sys, Core& core, const RetryCase& c,
                            sim::Addr a, const bool* abandon, int* performed,
                            int* abandoned) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  Backoff bo(BackoffPolicy::fixed(64), rng);
  while (!*abandon) {
    const bool ok =
        c.cas ? (co_await compareAndSwap(core, c.flavor, a, 0, 0, bo,
                                         abandon))
                    .swapped
              : (co_await fetchAdd(core, c.flavor, a, 1, bo, abandon))
                    .performed;
    if (!ok) {
      ++*abandoned;
      co_return;
    }
    ++*performed;
  }
}

class RmwRetries : public ::testing::TestWithParam<RetryCase> {};

TEST_P(RmwRetries, ZeroCycleBackoffRetriesInPlace) {
  const RetryCase& c = GetParam();
  obs::Recorder recorder;
  System sys(retryConfig(c, &recorder));
  const auto a = sys.allocator().allocGlobal(1);
  sys.poke(a, 0);
  constexpr int kIters = 20;
  for (sim::CoreId core = 0; core < 8; ++core) {
    sys.spawn(core, addWithoutBackoff(sys, sys.core(core), c, a, kIters));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(sys.allTasksDone());
  EXPECT_EQ(sys.peek(a), 8u * kIters);
  const double retries =
      recorder.value(c.cas ? "sync.casRetries" : "sync.rmwRetries").value();
  if (c.flavor == RmwFlavor::kAmo) {
    EXPECT_EQ(retries, 0.0);
  } else {
    EXPECT_GT(retries, 0.0) << "the retry path was never taken";
  }
}

TEST_P(RmwRetries, AbandonDuringBackoffGivesUp) {
  const RetryCase& c = GetParam();
  if (c.flavor == RmwFlavor::kAmo) {
    GTEST_SKIP() << "an AMO never backs off";
  }
  System sys(retryConfig(c, nullptr));
  const auto a = sys.allocator().allocGlobal(1);
  sys.poke(a, 0);
  bool abandon = false;
  int performed = 0;
  int abandoned = 0;
  for (sim::CoreId core = 0; core < 8; ++core) {
    sys.spawn(core, rmwUntilAbandoned(sys, sys.core(core), c, a, &abandon,
                                      &performed, &abandoned));
  }
  sys.at(5000, [&abandon] { abandon = true; });
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(sys.allTasksDone());
  EXPECT_GT(performed, 0);
  EXPECT_GT(abandoned, 0);
  EXPECT_EQ(sys.peek(a), c.cas ? 0u : static_cast<sim::Word>(performed));
}

INSTANTIATE_TEST_SUITE_P(
    Primitives, RmwRetries,
    ::testing::Values(
        RetryCase{"fetchAdd_amo", RmwFlavor::kAmo, AdapterKind::kAmoOnly,
                  false},
        RetryCase{"fetchAdd_lrsc", RmwFlavor::kLrsc, AdapterKind::kLrscSingle,
                  false},
        RetryCase{"fetchAdd_lrscwait", RmwFlavor::kLrscWait,
                  AdapterKind::kLrscWait, false},
        RetryCase{"cas_lrsc", RmwFlavor::kLrsc, AdapterKind::kLrscSingle,
                  true},
        RetryCase{"cas_lrscwait", RmwFlavor::kLrscWait,
                  AdapterKind::kLrscWait, true}),
    [](const auto& info) { return std::string(info.param.name); });

// --- Spin locks ----------------------------------------------------------

struct LockCase {
  AdapterKind adapter;
  SpinLockKind lock;
};

sim::Task lockedIncrements(System& sys, Core& core, sim::Addr lock,
                           sim::Addr counter, SpinLockKind kind, int iters) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  Backoff bo(BackoffPolicy::fixed(32), rng);
  for (int i = 0; i < iters; ++i) {
    co_await acquireLock(core, kind, lock, bo);
    // Deliberately non-atomic read-modify-write: only mutual exclusion can
    // make this correct.
    const auto v = co_await core.load(counter);
    co_await core.delay(2);
    (void)co_await core.amoSwap(counter, v.value + 1);  // acked store
    co_await releaseLock(core, lock);
  }
}

class SpinLocks : public ::testing::TestWithParam<LockCase> {};

TEST_P(SpinLocks, MutualExclusionUnderContention) {
  System sys(withAdapter(GetParam().adapter));
  const auto lock = sys.allocator().allocGlobal(1);
  const auto counter = sys.allocator().allocGlobal(1);
  constexpr int kIters = 30;
  for (sim::CoreId c = 0; c < 8; ++c) {
    sys.spawn(c, lockedIncrements(sys, sys.core(c), lock, counter,
                                  GetParam().lock, kIters));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_EQ(sys.peek(counter), 8u * kIters);
  EXPECT_EQ(sys.peek(lock), 0u);  // released at the end
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpinLocks,
    ::testing::Values(LockCase{AdapterKind::kAmoOnly, SpinLockKind::kAmoTas},
                      LockCase{AdapterKind::kLrscSingle,
                               SpinLockKind::kLrscTas},
                      LockCase{AdapterKind::kLrscTable,
                               SpinLockKind::kLrscTas},
                      LockCase{AdapterKind::kColibri,
                               SpinLockKind::kLrwaitTas}),
    [](const auto& info) {
      return test::paramName(std::string(arch::toString(info.param.adapter)) +
                               "_" + toString(info.param.lock));
    });

// --- MCS lock ------------------------------------------------------------

struct McsCase {
  AdapterKind adapter;
  WaitKind wait;
};

sim::Task mcsIncrements(System& sys, Core& core, McsLock& lock,
                        sim::Addr counter, int iters) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  Backoff bo(BackoffPolicy::fixed(32), rng);
  for (int i = 0; i < iters; ++i) {
    co_await lock.acquire(core, bo);
    const auto v = co_await core.load(counter);
    co_await core.delay(2);
    (void)co_await core.amoSwap(counter, v.value + 1);
    co_await lock.release(core, bo);
  }
}

class McsLocks : public ::testing::TestWithParam<McsCase> {};

TEST_P(McsLocks, MutualExclusionUnderContention) {
  System sys(withAdapter(GetParam().adapter));
  auto nodes = McsNodes::create(sys);
  const auto tail = sys.allocator().allocGlobal(1);
  const auto counter = sys.allocator().allocGlobal(1);
  const auto casFlavor = GetParam().adapter == AdapterKind::kColibri
                             ? RmwFlavor::kLrscWait
                             : RmwFlavor::kLrsc;
  McsLock lock(tail, nodes, casFlavor, GetParam().wait);
  constexpr int kIters = 25;
  for (sim::CoreId c = 0; c < 8; ++c) {
    sys.spawn(c, mcsIncrements(sys, sys.core(c), lock, counter, kIters));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_EQ(sys.peek(counter), 8u * kIters);
  EXPECT_EQ(sys.peek(tail), 0u);  // queue empty at the end
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, McsLocks,
    ::testing::Values(McsCase{AdapterKind::kLrscTable, WaitKind::kPoll},
                      McsCase{AdapterKind::kColibri, WaitKind::kPoll},
                      McsCase{AdapterKind::kColibri, WaitKind::kMwait}),
    [](const auto& info) {
      return test::paramName(std::string(arch::toString(info.param.adapter)) +
                               "_" + toString(info.param.wait));
    });

TEST(McsLock, MwaitWaitersSleep) {
  System sys(withAdapter(AdapterKind::kColibri));
  auto nodes = McsNodes::create(sys);
  const auto tail = sys.allocator().allocGlobal(1);
  const auto counter = sys.allocator().allocGlobal(1);
  McsLock lock(tail, nodes, RmwFlavor::kLrscWait, WaitKind::kMwait);
  for (sim::CoreId c = 0; c < 8; ++c) {
    sys.spawn(c, mcsIncrements(sys, sys.core(c), lock, counter, 10));
  }
  sys.run();
  sys.rethrowFailures();
  std::uint64_t sleep = 0;
  for (sim::CoreId c = 0; c < 8; ++c) {
    sleep += sys.core(c).stats().sleepCycles;
  }
  EXPECT_GT(sleep, 100u);  // waiters actually slept instead of polling
}

// --- Barrier ---------------------------------------------------------------

sim::Task barrierRounds(System& sys, Core& core, CentralBarrier& bar,
                        std::vector<int>& phase, int rounds) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  Backoff bo(BackoffPolicy::fixed(32), rng);
  sim::Word sense = 0;
  for (int r = 0; r < rounds; ++r) {
    // Every core must observe every other core's phase >= r before anyone
    // reaches r+1: that is exactly what the barrier must enforce.
    phase[core.id()] = r;
    co_await bar.wait(core, sense, bo);
    for (sim::CoreId c = 0; c < 8; ++c) {
      EXPECT_GE(phase[c], r) << "core " << c << " overtaken in round " << r;
    }
    co_await core.delay(5 + core.id());
  }
}

class Barriers : public ::testing::TestWithParam<WaitKind> {};

TEST_P(Barriers, NoCoreOvertakesARound) {
  System sys(withAdapter(AdapterKind::kColibri));
  CentralBarrier bar(sys, 8, GetParam());
  std::vector<int> phase(8, -1);
  for (sim::CoreId c = 0; c < 8; ++c) {
    sys.spawn(c, barrierRounds(sys, sys.core(c), bar, phase, 6));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(sys.allTasksDone());
}

INSTANTIATE_TEST_SUITE_P(Waits, Barriers,
                         ::testing::Values(WaitKind::kPoll, WaitKind::kMwait),
                         [](const auto& info) {
                           return test::paramName(toString(info.param));
                         });

// --- Backoff -----------------------------------------------------------

TEST(Backoff, NonePolicyReturnsZero) {
  sim::Xoshiro256 rng(1);
  Backoff b(BackoffPolicy::none(), rng);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.next(), 0u);
  }
}

TEST(Backoff, FixedStaysNearBase) {
  sim::Xoshiro256 rng(1);
  Backoff b(BackoffPolicy::fixed(128), rng);
  for (int i = 0; i < 100; ++i) {
    const auto w = b.next();
    EXPECT_GE(w, 96u);
    EXPECT_LE(w, 160u);
  }
}

TEST(Backoff, ExponentialGrowsAndCaps) {
  sim::Xoshiro256 rng(1);
  Backoff b(BackoffPolicy::exponential(16, 256), rng);
  sim::Cycle prev = 0;
  sim::Cycle last = 0;
  for (int i = 0; i < 10; ++i) {
    last = b.next();
    if (i > 0 && i < 4) {
      EXPECT_GT(last, prev);  // growing phase (jitter < doubling)
    }
    prev = last;
  }
  EXPECT_LE(last, 256u + 64u);  // capped (+ jitter)
  b.reset();
  EXPECT_LE(b.next(), 24u);  // back to base
}

}  // namespace
}  // namespace colibri::sync
