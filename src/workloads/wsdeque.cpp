#include "workloads/wsdeque.hpp"

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sync/atomic.hpp"

namespace colibri::workloads {

namespace {

struct DequeCtx {
  const WsDequeParams* params = nullptr;
  std::vector<sim::Addr> ring;   ///< task values (index + 1), never rewritten
  std::vector<sim::Addr> marks;  ///< per-task execution marks
  sim::Addr top = 0;
  sim::Addr bottom = 0;
  sim::Addr remaining = 0;
  std::uint32_t tasks = 0;
  sync::RmwFlavor casFlavor = sync::RmwFlavor::kLrsc;
  std::uint64_t executed = 0;
  std::uint64_t ownerPops = 0;
  std::uint64_t steals = 0;
  std::uint64_t failedSteals = 0;
  std::uint64_t duplicates = 0;
  sim::Cycle lastRetire = 0;
};

/// Run one claimed task: compute, then mark it executed (the old mark must
/// be 0 — a non-zero old value is a duplicate execution, the bug this
/// workload exists to catch) and retire it from the remaining-counter.
sim::Co<void> executeTask(arch::System& sys, arch::Core& core, DequeCtx& ctx,
                          sim::Word task) {
  co_await core.delay(ctx.params->taskCycles);
  const auto mark = co_await core.amoAdd(ctx.marks[task - 1], 1);
  if (mark.value != 0) {
    ++ctx.duplicates;
  }
  (void)co_await core.amoAdd(ctx.remaining, sim::Word(-1));
  ++ctx.executed;
  ctx.lastRetire = sys.now();
}

sim::Task ownerTask(arch::System& sys, arch::Core& core, DequeCtx& ctx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0xDE0 + core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  while (true) {
    const auto bOld = co_await core.load(ctx.bottom);
    const sim::Word b = bOld.value - 1;
    // Publish the decremented bottom with an acked store: a thief that
    // subsequently advances top to b must observe it and stand down from
    // the element the owner is about to take.
    (void)co_await core.amoSwap(ctx.bottom, b);
    const auto t = co_await core.load(ctx.top);
    if (t.value < b) {  // more than one element left: free take
      const auto task = co_await core.load(ctx.ring[b]);
      ++ctx.ownerPops;
      co_await executeTask(sys, core, ctx, task.value);
      continue;
    }
    if (t.value == b) {  // last element: race the thieves for it
      const auto task = co_await core.load(ctx.ring[b]);
      const auto cas = co_await sync::compareAndSwap(
          core, ctx.casFlavor, ctx.top, t.value, t.value + 1, backoff);
      (void)co_await core.amoSwap(ctx.bottom, t.value + 1);
      if (cas.swapped) {
        ++ctx.ownerPops;
        co_await executeTask(sys, core, ctx, task.value);
      }
      co_return;  // deque is empty either way (no pushes in this workload)
    }
    // t > b: the deque was already empty; restore bottom and retire.
    (void)co_await core.amoSwap(ctx.bottom, t.value);
    co_return;
  }
}

sim::Task thiefTask(arch::System& sys, arch::Core& core, DequeCtx& ctx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0x7F1E + core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  while (true) {
    const auto rem = co_await core.load(ctx.remaining);
    if (rem.value == 0 || rem.value > ctx.tasks) {  // drained (or underflow)
      co_return;
    }
    const auto t = co_await core.load(ctx.top);
    const auto b = co_await core.load(ctx.bottom);
    if (t.value < b.value) {
      const auto task = co_await core.load(ctx.ring[t.value]);
      const auto cas = co_await sync::compareAndSwap(
          core, ctx.casFlavor, ctx.top, t.value, t.value + 1, backoff);
      if (cas.swapped) {
        ++ctx.steals;
        backoff.reset();
        co_await executeTask(sys, core, ctx, task.value);
        continue;
      }
      ++ctx.failedSteals;
    }
    co_await core.delay(backoff.next());
  }
}

}  // namespace

WsDequeResult runWsDeque(arch::System& sys, const WsDequeParams& p) {
  COLIBRI_CHECK_MSG(sys.config().adapter != arch::AdapterKind::kAmoOnly,
                    "wsdeque steals CAS the top pointer and the AMO-only "
                    "adapter has no reservations");
  const auto numCores = sys.numCores();
  COLIBRI_CHECK_MSG(numCores >= 2, "wsdeque needs an owner and a thief");

  DequeCtx ctx;
  ctx.params = &p;
  ctx.tasks = p.tasks != 0 ? p.tasks : 8 * numCores;
  COLIBRI_CHECK_MSG(ctx.tasks >= 1, "wsdeque: empty task set");
  ctx.casFlavor = rmwFlavorFor(sys.config().adapter);

  auto& alloc = sys.allocator();
  const sim::Addr ringBase = alloc.allocGlobal(ctx.tasks);
  const sim::Addr markBase = alloc.allocGlobal(ctx.tasks);
  ctx.ring.reserve(ctx.tasks);
  ctx.marks.reserve(ctx.tasks);
  for (std::uint32_t i = 0; i < ctx.tasks; ++i) {
    ctx.ring.push_back(ringBase + i);
    ctx.marks.push_back(markBase + i);
    sys.poke(ringBase + i, i + 1);
    sys.poke(markBase + i, 0);
  }
  ctx.top = alloc.allocGlobal(1);
  ctx.bottom = alloc.allocGlobal(1);
  ctx.remaining = alloc.allocGlobal(1);
  sys.poke(ctx.top, 0);
  sys.poke(ctx.bottom, ctx.tasks);
  sys.poke(ctx.remaining, ctx.tasks);

  // Owner on core 0; every other core is a thief, so steals cross tiles
  // and groups.
  sys.spawn(0, ownerTask(sys, sys.core(0), ctx));
  for (sim::CoreId c = 1; c < numCores; ++c) {
    sys.spawn(c, thiefTask(sys, sys.core(c), ctx));
  }

  sys.drain("wsdeque workers");

  WsDequeResult res;
  res.duration = ctx.lastRetire;
  res.executed = ctx.executed;
  res.ownerPops = ctx.ownerPops;
  res.steals = ctx.steals;
  res.failedSteals = ctx.failedSteals;
  res.duplicates = ctx.duplicates;
  std::uint64_t markSum = 0;
  for (const auto m : ctx.marks) {
    markSum += sys.peek(m);
  }
  res.verified = ctx.duplicates == 0 && ctx.executed == ctx.tasks &&
                 markSum == ctx.tasks && sys.peek(ctx.remaining) == 0;
  COLIBRI_CHECK_MSG(res.verified,
                    "wsdeque: exactly-once violated, executed="
                        << ctx.executed << " duplicates=" << ctx.duplicates
                        << " markSum=" << markSum);
  res.counters = snapshotCounters(sys, res.duration, numCores);
  return res;
}

}  // namespace colibri::workloads
