#include "workloads/lockfair.hpp"

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
  sim::CycleHistogram waits;  // every participant's window acquisitions
  std::uint64_t exclusionViolations = 0;
};

sim::Task lockWorker(arch::System& sys, arch::Core& core, LockCtx& ctx,
                     Window& win, std::uint32_t idx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0x10CF + core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  // The think delay ends each iteration, so the loop test is the stop
  // check after it.
  while (win.startOp()) {
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

    if (win.completeOp(idx, held)) {
      ctx.waits.add(held - waitFrom);
    }
    co_await core.delay(1 + ctx.params->thinkCycles + rng.below(8));
  }
}

}  // namespace

LockFairResult runLockFair(arch::System& sys, const LockFairParams& p) {
  Window win(sys, p.window, p.cores);
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

  for (std::uint32_t i = 0; i < win.participants(); ++i) {
    const sim::CoreId c = win.cores()[i];
    sys.spawn(c, lockWorker(sys, sys.core(c), ctx, win, i));
  }

  LockFairResult res;
  res.rate = win.run("lockfair workers");
  res.acquisitions = win.completed();
  res.exclusionViolations = ctx.exclusionViolations;
  res.verified = ctx.exclusionViolations == 0 && sys.peek(ctx.lock) == 0 &&
                 sys.peek(ctx.overlap) == 0 &&
                 sys.peek(ctx.shared) == res.acquisitions;
  COLIBRI_CHECK_MSG(res.verified,
                    "lockfair: lock invariant violated, overlaps="
                        << ctx.exclusionViolations
                        << " shared=" << sys.peek(ctx.shared)
                        << " acquisitions=" << res.acquisitions);

  res.acqSpread = sim::Summary::ofCounts(res.rate.perCoreWindowOps);
  res.handoff = sim::Summary::ofHistogram(ctx.waits);
  return res;
}

}  // namespace colibri::workloads
