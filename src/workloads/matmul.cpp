#include "workloads/matmul.hpp"

#include <memory>
#include <numeric>

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sync/atomic.hpp"
#include "sync/mcs.hpp"
#include "sync/spinlock.hpp"

namespace colibri::workloads {

namespace {

struct MatmulCtx {
  std::uint32_t n = 0;
  sim::Addr a = 0;
  sim::Addr b = 0;
  sim::Addr c = 0;
  std::uint32_t workersTotal = 0;
  std::uint32_t workersDone = 0;
  sim::Cycle lastDone = 0;
  std::uint64_t macs = 0;
  bool pollersStop = false;
};

/// One worker computes every `stride`-th output element starting at `first`
/// (cyclic distribution balances load).
sim::Task matmulWorker(arch::System& sys, arch::Core& core, MatmulCtx& ctx,
                       std::uint32_t first, std::uint32_t stride) {
  const std::uint32_t n = ctx.n;
  for (std::uint32_t e = first; e < n * n; e += stride) {
    const std::uint32_t i = e / n;
    const std::uint32_t j = e % n;
    sim::Word acc = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto av = co_await core.load(ctx.a + i * n + k);
      const auto bv = co_await core.load(ctx.b + k * n + j);
      co_await core.delay(1);  // MAC
      acc += av.value * bv.value;
      ++ctx.macs;
    }
    (void)co_await core.store(ctx.c + e, acc);
  }
  ++ctx.workersDone;
  if (ctx.workersDone == ctx.workersTotal) {
    ctx.lastDone = sys.now();
    ctx.pollersStop = true;  // (only read by the interference harness)
  }
}

void initMatrices(arch::System& sys, MatmulCtx& ctx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0xA17A);
  for (std::uint32_t i = 0; i < ctx.n * ctx.n; ++i) {
    sys.poke(ctx.a + i, static_cast<sim::Word>(rng.below(16)));
    sys.poke(ctx.b + i, static_cast<sim::Word>(rng.below(16)));
    sys.poke(ctx.c + i, 0);
  }
}

bool verifyMatmul(arch::System& sys, const MatmulCtx& ctx) {
  // Full host-side check: n is small (<= 64) so this is cheap.
  const std::uint32_t n = ctx.n;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      sim::Word acc = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        acc += sys.peek(ctx.a + i * n + k) * sys.peek(ctx.b + k * n + j);
      }
      if (sys.peek(ctx.c + i * n + j) != acc) {
        return false;
      }
    }
  }
  return true;
}

MatmulCtx setupMatmul(arch::System& sys, const MatmulParams& p) {
  COLIBRI_CHECK(p.n >= 1 && !p.workers.empty());
  MatmulCtx ctx;
  ctx.n = p.n;
  const std::uint64_t words = static_cast<std::uint64_t>(p.n) * p.n;
  ctx.a = sys.allocator().allocGlobal(words);
  ctx.b = sys.allocator().allocGlobal(words);
  ctx.c = sys.allocator().allocGlobal(words);
  ctx.workersTotal = static_cast<std::uint32_t>(p.workers.size());
  initMatrices(sys, ctx);
  return ctx;
}

void spawnWorkers(arch::System& sys, const MatmulParams& p, MatmulCtx& ctx) {
  const auto stride = static_cast<std::uint32_t>(p.workers.size());
  for (std::uint32_t w = 0; w < stride; ++w) {
    sys.spawn(p.workers[w],
              matmulWorker(sys, sys.core(p.workers[w]), ctx, w, stride));
  }
}

}  // namespace

MatmulResult runMatmul(arch::System& sys, const MatmulParams& p) {
  MatmulCtx ctx = setupMatmul(sys, p);
  spawnWorkers(sys, p, ctx);
  sys.drain("matmul workers");

  MatmulResult r;
  r.duration = ctx.lastDone;
  r.macs = ctx.macs;
  r.verified = verifyMatmul(sys, ctx);
  COLIBRI_CHECK_MSG(r.verified, "matmul result mismatch");
  return r;
}

namespace {

/// Poller: histogram increments forever (until the workers finish).
sim::Task pollerTask(arch::System& sys, arch::Core& core, MatmulCtx& ctx,
                     const std::vector<sim::Addr>& bins,
                     const InterferenceParams& p, std::uint64_t* updates) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0x9011 + core.id());
  sync::Backoff backoff(p.pollerBackoff, rng);
  const auto flavor = rmwFlavorFor(sys.config().adapter);
  while (!ctx.pollersStop) {
    co_await core.delay(4);
    const sim::Addr bin = bins[rng.below(bins.size())];
    const auto r =
        co_await sync::fetchAdd(core, flavor, bin, 1, backoff,
                                &ctx.pollersStop);
    if (r.performed) {
      ++*updates;
    }
  }
}

}  // namespace

InterferenceResult runInterference(arch::System& sys,
                                   const InterferenceParams& p) {
  MatmulCtx ctx = setupMatmul(sys, p.matmul);
  // One bin per bank, starting mid-machine: the hot banks must not be
  // co-located with the worker cores' tiles (local-tile accesses bypass
  // the shared ingress, which would mask the interference under study).
  const auto numBanks = sys.numBanks();
  std::vector<sim::Addr> bins;
  bins.reserve(p.bins);
  for (std::uint32_t i = 0; i < p.bins; ++i) {
    const sim::BankId bank = (numBanks / 2 + i) % numBanks;
    bins.push_back(sys.allocator().allocInBank(bank));
    sys.poke(bins.back(), 0);
  }

  InterferenceResult res;
  spawnWorkers(sys, p.matmul, ctx);
  for (const auto c : p.pollers) {
    sys.spawn(c, pollerTask(sys, sys.core(c), ctx, bins, p,
                            &res.pollerUpdates));
  }
  sys.drain("matmul workers and pollers");

  res.matmul.duration = ctx.lastDone;
  res.matmul.macs = ctx.macs;
  res.matmul.verified = verifyMatmul(sys, ctx);
  COLIBRI_CHECK_MSG(res.matmul.verified, "matmul result mismatch");
  return res;
}

}  // namespace colibri::workloads
