#include "workloads/lockfair.hpp"

#include <numeric>

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sync/spinlock.hpp"

namespace colibri::workloads {

namespace {

struct LockCtx {
  const LockFairParams* params = nullptr;
  sim::Addr lock = 0;
  sim::Addr overlap = 0;  ///< occupancy probe, litmus-style
  sim::Addr shared = 0;   ///< lock-protected word, bumped per CS
  sync::SpinLockKind kind = sync::SpinLockKind::kAmoTas;
  bool stop = false;
  sim::Cycle windowStart = 0;
  sim::Cycle windowEnd = 0;
  std::vector<std::uint64_t> perCoreWindow;
  sim::CycleHistogram waits;  // every participant's window acquisitions
  std::uint64_t acquisitions = 0;
  std::uint64_t exclusionViolations = 0;
};

sim::Task lockWorker(arch::System& sys, arch::Core& core, LockCtx& ctx,
                     std::uint32_t idx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0x10CF + core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  while (!ctx.stop) {
    const auto waitFrom = sys.now();
    co_await sync::acquireLock(core, ctx.kind, ctx.lock, backoff);
    const auto held = sys.now();

    // Occupancy probe: anyone else inside means the lock is broken.
    const auto occ = co_await core.amoAdd(ctx.overlap, 1);
    if (occ.value != 0) {
      ++ctx.exclusionViolations;
    }
    co_await core.delay(ctx.params->csCycles);
    // Publish the protected update with an acked store before releasing
    // (the fence the posted-store model requires; see spinlock.hpp).
    const auto seen = co_await core.load(ctx.shared);
    (void)co_await core.amoSwap(ctx.shared, seen.value + 1);
    (void)co_await core.amoAdd(ctx.overlap, sim::Word(-1));
    co_await sync::releaseLock(core, ctx.lock);

    ++ctx.acquisitions;
    if (held >= ctx.windowStart && held < ctx.windowEnd) {
      ++ctx.perCoreWindow[idx];
      ctx.waits.add(held - waitFrom);
    }
    co_await core.delay(1 + ctx.params->thinkCycles + rng.below(8));
  }
}

}  // namespace

LockFairResult runLockFair(arch::System& sys, const LockFairParams& p) {
  std::vector<sim::CoreId> cores = p.cores;
  if (cores.empty()) {
    cores.resize(sys.numCores());
    std::iota(cores.begin(), cores.end(), 0);
  }
  const auto participants = static_cast<std::uint32_t>(cores.size());

  LockCtx ctx;
  ctx.params = &p;
  ctx.kind = lockKindFor(sys.config().adapter);
  auto& alloc = sys.allocator();
  ctx.lock = alloc.allocGlobal(1);
  ctx.overlap = alloc.allocGlobal(1);
  ctx.shared = alloc.allocGlobal(1);
  sys.poke(ctx.lock, 0);
  sys.poke(ctx.overlap, 0);
  sys.poke(ctx.shared, 0);
  ctx.perCoreWindow.assign(participants, 0);
  ctx.windowStart = p.window.warmup;
  ctx.windowEnd = p.window.horizon();

  for (std::uint32_t i = 0; i < participants; ++i) {
    sys.spawn(cores[i], lockWorker(sys, sys.core(cores[i]), ctx, i));
  }
  sys.at(ctx.windowStart, [&sys] { sys.resetStats(); });
  sys.at(ctx.windowEnd, [&ctx] { ctx.stop = true; });

  sys.runUntil(ctx.windowEnd);
  const auto counters = snapshotCounters(sys, p.window.measure, participants);
  sys.run();
  sys.rethrowFailures();
  COLIBRI_CHECK_MSG(sys.allTasksDone(), "lockfair workers failed to drain");

  LockFairResult res;
  res.acquisitions = ctx.acquisitions;
  res.exclusionViolations = ctx.exclusionViolations;
  res.verified = ctx.exclusionViolations == 0 && sys.peek(ctx.lock) == 0 &&
                 sys.peek(ctx.overlap) == 0 &&
                 sys.peek(ctx.shared) == ctx.acquisitions;
  COLIBRI_CHECK_MSG(res.verified,
                    "lockfair: lock invariant violated, overlaps="
                        << ctx.exclusionViolations
                        << " shared=" << sys.peek(ctx.shared)
                        << " acquisitions=" << ctx.acquisitions);

  res.rate = summarizeRates(ctx.perCoreWindow, p.window.measure, counters);
  res.acqSpread = sim::Summary::ofCounts(ctx.perCoreWindow);
  res.handoff = sim::Summary::ofHistogram(ctx.waits);
  return res;
}

}  // namespace colibri::workloads
