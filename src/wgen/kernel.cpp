#include "wgen/kernel.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "arch/system.hpp"
#include "obs/hooks.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sync/atomic.hpp"
#include "sync/mcs.hpp"
#include "sync/spinlock.hpp"

namespace colibri::wgen {

namespace {

/// Shared state of one kernel run. Lives on the runKernel stack; worker
/// frames reference it and are only resumed while the run is active.
struct WgenCtx {
  const WgenParams* params = nullptr;
  std::vector<ResolvedRegion> regions;
  sync::RmwFlavor rmwFlavor = sync::RmwFlavor::kLrsc;
  sync::RmwFlavor casFlavor = sync::RmwFlavor::kLrsc;
  sync::SpinLockKind lockKind = sync::SpinLockKind::kLrscTas;
  sync::WaitKind mcsWait = sync::WaitKind::kPoll;
  std::optional<sync::McsNodes> mcs;  // kMcsLock phases only
  std::uint64_t increments = 0;       // modifying ops, window or not
  sim::CycleHistogram latency;  // every participant's window ops
};

std::uint32_t pickIndex(const Region& def, const ResolvedRegion& region,
                        sim::Xoshiro256& rng, std::uint32_t pidx) {
  const auto range = static_cast<std::uint32_t>(region.addrs.size());
  switch (def.dist) {
    case AddrDist::kUniform:
      return static_cast<std::uint32_t>(rng.below(range));
    case AddrDist::kZipfian:
      return zipfRank(region.cdf, region.guide, rng.uniform01());
    case AddrDist::kHotspot:
      if (range <= 1 || rng.uniform01() < def.hotFraction) {
        return 0;
      }
      return 1 + static_cast<std::uint32_t>(rng.below(range - 1));
    case AddrDist::kStrided:
      return pidx % range;
  }
  return 0;
}

sim::Task wgenWorker(arch::System& sys, arch::Core& core, WgenCtx& ctx,
                     workloads::Window& win, const Role& role,
                     std::uint32_t pidx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  const obs::SimHooks* hooks = sys.obsHooks();
  std::size_t next = 0;

  while (!win.stopped()) {
    const Phase& phase = role.phases[next];
    next = (next + 1) % role.phases.size();
    const Region& def = ctx.params->kernel.regions[phase.region];
    const ResolvedRegion& region = ctx.regions[phase.region];
    const sim::Cycle visitStart = sys.now();

    for (std::uint32_t rep = 0; rep < phase.opsPerVisit && !win.stopped();
         ++rep) {
      if (phase.thinkCycles > 0) {
        co_await core.delay(phase.thinkCycles);
        if (!win.startOp()) {
          break;
        }
      }
      const std::uint32_t idx = pickIndex(def, region, rng, pidx);
      const sim::Addr a = region.addrs[idx];
      const sim::Cycle start = sys.now();
      bool performed = false;
      bool modified = false;
      switch (phase.op) {
        case OpClass::kLoad: {
          (void)co_await core.load(a);
          performed = true;
          break;
        }
        case OpClass::kRmw:
        case OpClass::kCas: {
          // One co_await for both, so the frame holds one RMW awaiter.
          const bool cas = phase.op == OpClass::kCas;
          sim::Word expected = 0;
          if (cas) {
            expected = (co_await core.load(a)).value;
          }
          while (true) {
            const auto r = co_await sync::FetchAddOrCas(
                core, cas ? ctx.casFlavor : ctx.rmwFlavor, cas, a, expected,
                cas ? expected + 1 : 1, backoff, win.stopFlag());
            if (r.swapped || !cas) {
              performed = modified = r.swapped;
              break;
            }
            expected = r.observed;
            // Each attempt closes its reservation pair, so giving up
            // between attempts never leaves a dangling LRwait.
            co_await core.delay(backoff.next());
            if (win.stopped()) {
              break;
            }
          }
          break;
        }
        case OpClass::kLock:
        case OpClass::kMcsLock: {
          const sim::Addr lockWord = region.locks[idx];
          std::optional<sync::McsLock> mcs;
          if (phase.op == OpClass::kMcsLock) {
            mcs.emplace(lockWord, *ctx.mcs, ctx.casFlavor, ctx.mcsWait);
            co_await mcs->acquire(core, backoff);
          } else {
            co_await sync::acquireLock(core, ctx.lockKind, lockWord, backoff);
          }
          const auto v = co_await core.load(a);
          co_await core.delay(phase.csCycles);
          // Acked store: the data update must commit before the release
          // store can be observed (see spinlock.hpp on ordering).
          (void)co_await core.amoSwap(a, v.value + 1);
          if (mcs) {
            co_await mcs->release(core, backoff);
          } else {
            co_await sync::releaseLock(core, lockWord);
          }
          performed = modified = true;
          break;
        }
      }
      if (performed) {
        if (modified) {
          ++ctx.increments;
        }
        const auto now = sys.now();
        if (win.completeOp(pidx, now)) {
          ctx.latency.add(now - start);
        }
      }
    }
    if (hooks != nullptr) {
      hooks->add(hooks->wgenVisits);
      if (hooks->tracer != nullptr) {
        hooks->tracer->onPhase(core.id(), toString(phase.op), visitStart,
                               sys.now());
      }
    }
    if (phase.gapCycles > 0 && !win.stopped()) {
      co_await core.delay(phase.gapCycles);
    }
  }
}

}  // namespace

std::vector<ResolvedRegion> allocateRegions(arch::Allocator& alloc,
                                            const KernelSpec& spec,
                                            std::uint32_t participants) {
  validate(spec);
  std::vector<bool> needsLocks(spec.regions.size(), false);
  for (const auto& role : spec.roles) {
    for (const auto& ph : role.phases) {
      if (ph.op == OpClass::kLock || ph.op == OpClass::kMcsLock) {
        needsLocks[ph.region] = true;
      }
    }
  }

  std::vector<ResolvedRegion> out(spec.regions.size());
  for (std::size_t i = 0; i < spec.regions.size(); ++i) {
    const Region& def = spec.regions[i];
    const std::uint32_t range =
        def.range != 0 ? def.range : std::max(1u, participants);
    ResolvedRegion& region = out[i];
    if (def.dist == AddrDist::kStrided) {
      const auto banks = alloc.map().numBanks();
      region.addrs.reserve(range);
      for (std::uint32_t j = 0; j < range; ++j) {
        const sim::BankId b =
            def.strideBanks == 0
                ? 0
                : static_cast<sim::BankId>(
                      (static_cast<std::uint64_t>(j) * def.strideBanks) %
                      banks);
        region.addrs.push_back(alloc.allocInBank(b));
      }
    } else {
      // Allocate before sizing the table: a range past the SPM throws
      // here instead of reserving host memory for it.
      const sim::Addr base = alloc.allocGlobal(range);
      region.addrs.resize(range);
      std::iota(region.addrs.begin(), region.addrs.end(), base);
    }
    if (needsLocks[i]) {
      const sim::Addr base = alloc.allocGlobal(range);
      region.locks.resize(range);
      std::iota(region.locks.begin(), region.locks.end(), base);
    }
  }
  return out;
}

std::vector<ResolvedRegion> resolveRegions(arch::System& sys,
                                           const KernelSpec& spec,
                                           std::uint32_t participants) {
  auto out = allocateRegions(sys.allocator(), spec, participants);
  for (std::size_t i = 0; i < spec.regions.size(); ++i) {
    ResolvedRegion& region = out[i];
    for (const auto a : region.addrs) {
      sys.poke(a, 0);
    }
    for (const auto l : region.locks) {
      sys.poke(l, 0);
    }
    const Region& def = spec.regions[i];
    if (def.dist == AddrDist::kZipfian) {
      region.cdf = zipfCdf(static_cast<std::uint32_t>(region.addrs.size()),
                           def.zipfTheta);
      region.guide = zipfGuide(region.cdf);
    }
  }
  return out;
}

WgenResult runKernel(arch::System& sys, const WgenParams& p) {
  validate(p.kernel);
  const auto adapter = sys.config().adapter;
  if (needsReservations(p.kernel)) {
    COLIBRI_CHECK_MSG(adapter != arch::AdapterKind::kAmoOnly,
                      "kernel '" << p.kernel.name
                                 << "' runs CAS loops and the AMO-only "
                                    "adapter has no reservations");
  }

  workloads::Window win(sys, p.window, p.cores);
  const auto participants = win.participants();

  WgenCtx ctx;
  ctx.params = &p;
  ctx.regions = resolveRegions(sys, p.kernel, participants);
  ctx.rmwFlavor = workloads::rmwFlavorFor(adapter);
  ctx.casFlavor = ctx.rmwFlavor == sync::RmwFlavor::kAmo
                      ? sync::RmwFlavor::kLrsc  // unreachable (checked above)
                      : ctx.rmwFlavor;
  ctx.lockKind = workloads::lockKindFor(adapter);
  ctx.mcsWait = ctx.rmwFlavor == sync::RmwFlavor::kLrscWait
                    ? sync::WaitKind::kMwait
                    : sync::WaitKind::kPoll;
  if (usesOp(p.kernel, OpClass::kMcsLock)) {
    // After the regions, so their addresses do not depend on the lock.
    ctx.mcs = sync::McsNodes::create(sys);
  }

  const auto assignment = assignRoles(p.kernel, participants);
  for (std::uint32_t i = 0; i < participants; ++i) {
    const sim::CoreId c = win.cores()[i];
    sys.spawn(c, wgenWorker(sys, sys.core(c), ctx, win,
                            p.kernel.roles[assignment[i]], i));
  }

  WgenResult res;
  res.rate = win.run("wgen workers");
  res.totalOps = win.completed();
  res.totalIncrements = ctx.increments;

  std::uint64_t sum = 0;
  bool locksFree = true;
  for (const auto& region : ctx.regions) {
    for (const auto a : region.addrs) {
      sum += sys.peek(a);
    }
    for (const auto l : region.locks) {
      locksFree = locksFree && sys.peek(l) == 0;
    }
  }
  res.sumVerified = sum == res.totalIncrements && locksFree;
  COLIBRI_CHECK_MSG(res.sumVerified,
                    "wgen sum mismatch: kernel=" << p.kernel.name
                                                 << " words=" << sum
                                                 << " increments="
                                                 << res.totalIncrements
                                                 << " locksFree="
                                                 << locksFree);

  res.opLatency = sim::Summary::ofHistogram(ctx.latency);
  return res;
}

}  // namespace colibri::wgen
