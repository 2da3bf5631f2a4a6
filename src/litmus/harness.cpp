#include "litmus/harness.hpp"

#include <algorithm>
#include <utility>

#include "arch/system.hpp"
#include "exp/sweep.hpp"
#include "litmus/kernels.hpp"
#include "sim/check.hpp"
#include "workloads/harness.hpp"

namespace colibri::litmus {

namespace {

/// Adversarial placement for contender `i`'s protocol word: a bank in the
/// tile of the *next* contender, so the owner's protocol store travels the
/// interconnect while the neighbor's check loads locally — the widest
/// store->load reorder window the geometry offers. Fenced mode must
/// survive exactly this placement.
sim::Addr allocRemoteWord(arch::System& sys,
                          const std::vector<sim::CoreId>& coreOf,
                          std::uint32_t i, std::uint32_t salt) {
  auto& alloc = sys.allocator();
  const auto& cfg = sys.config();
  const auto n = static_cast<std::uint32_t>(coreOf.size());
  const auto neighborTile =
      static_cast<sim::TileId>(coreOf[(i + 1) % n] / cfg.coresPerTile);
  const auto bank = static_cast<sim::BankId>(
      neighborTile * cfg.banksPerTile + (salt % cfg.banksPerTile));
  return alloc.allocInBank(bank);
}

}  // namespace

LitmusResult runLitmus(arch::System& sys, const LitmusParams& params) {
  const auto& info = infoFor(params.algo);
  const auto& cfg = sys.config();
  COLIBRI_CHECK_MSG(params.iterations >= 1, "litmus: iterations must be >= 1");
  COLIBRI_CHECK_MSG(params.watchdog > 0, "litmus: watchdog must be > 0");
  COLIBRI_CHECK_MSG(params.contenders >= info.minContenders &&
                        params.contenders <= info.maxContenders,
                    "litmus: contender count outside the algorithm's range");
  COLIBRI_CHECK_MSG(params.contenders <= cfg.numCores,
                    "litmus: more contenders than cores");

  const auto n = params.contenders;
  LitmusCtx ctx;
  ctx.params = &params;
  ctx.rmwFlavor = workloads::rmwFlavorFor(cfg.adapter);
  ctx.casAvailable = cfg.adapter != arch::AdapterKind::kAmoOnly;
  ctx.casFlavor = ctx.casAvailable ? ctx.rmwFlavor : sync::RmwFlavor::kLrsc;
  ctx.lockKind = workloads::lockKindFor(cfg.adapter);
  ctx.perCoreEntries.assign(n, 0);

  // Contender -> core: spread across the core space (one per
  // numCores/contenders stride) so contenders sit in different
  // tiles/groups — remote placement widens the reorder window the flag
  // algorithms must survive.
  ctx.coreOf.resize(n);
  const auto stride = std::max(1u, cfg.numCores / n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ctx.coreOf[i] = static_cast<sim::CoreId>(i * stride);
  }

  auto& alloc = sys.allocator();
  ctx.counter = alloc.allocGlobal(1);
  ctx.overlap = alloc.allocGlobal(1);
  ctx.turn = alloc.allocGlobal(1);
  ctx.lockWord = alloc.allocGlobal(1);
  sys.poke(ctx.counter, 0);
  sys.poke(ctx.overlap, 0);
  sys.poke(ctx.turn, 0);
  sys.poke(ctx.lockWord, 0);
  ctx.flags.resize(n);
  ctx.numbers.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ctx.flags[i] = allocRemoteWord(sys, ctx.coreOf, i, i);
    ctx.numbers[i] = allocRemoteWord(sys, ctx.coreOf, i, i + n);
    sys.poke(ctx.flags[i], 0);
    sys.poke(ctx.numbers[i], 0);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    sys.spawn(ctx.coreOf[i], litmusWorker(sys, ctx, i));
  }
  sys.at(params.watchdog, [&ctx] { ctx.stop = true; });
  sys.drain("litmus: workers");

  LitmusResult r;
  r.algorithm = info.name;
  r.adapter = arch::toString(cfg.adapter);
  r.contenders = n;
  r.seed = cfg.seed;
  r.fenced = params.fenced;
  r.perCoreEntries = ctx.perCoreEntries;
  r.expectedEntries = static_cast<std::uint64_t>(n) * params.iterations;
  for (const auto e : ctx.perCoreEntries) {
    r.entries += e;
  }
  r.exclusionViolations = ctx.exclusionViolations;
  const std::uint64_t counterVal = sys.peek(ctx.counter);
  COLIBRI_CHECK_MSG(counterVal <= r.entries,
                    "litmus: phantom counter increments");
  COLIBRI_CHECK_MSG(sys.peek(ctx.overlap) == 0,
                    "litmus: unbalanced occupancy probe");
  r.lostUpdates = r.entries - counterVal;
  r.progressOk = r.entries == r.expectedEntries;
  r.finishedAt = ctx.lastDone;
  return r;
}

bool passes(const AlgorithmInfo& info, const LitmusResult& r) {
  if (info.expectExclusion) {
    return r.holds();
  }
  return r.violationDetected() && r.progressOk;
}

std::vector<MatrixCase> buildMatrix(const std::vector<std::uint64_t>& seeds,
                                    const arch::SystemConfig& base,
                                    std::uint32_t iterations) {
  std::vector<MatrixCase> cases;
  for (const auto& adapter : exp::adapters()) {
    for (const auto& info : algorithms()) {
      for (const auto seed : seeds) {
        MatrixCase c;
        c.adapter = adapter;
        c.params.algo = info.algo;
        c.params.contenders =
            std::min(info.defaultContenders, base.numCores);
        c.params.iterations = iterations;
        c.config = exp::configFor(adapter, 8, base);
        c.config.seed = seed;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

std::vector<LitmusResult> runMatrix(const std::vector<MatrixCase>& cases,
                                    unsigned threads) {
  std::vector<std::function<LitmusResult()>> jobs;
  jobs.reserve(cases.size());
  for (const auto& c : cases) {
    jobs.emplace_back([c] {
      arch::System sys(c.config);
      auto r = runLitmus(sys, c.params);
      // Registry name, which distinguishes lrscwait from lrscwait_ideal
      // (both are AdapterKind::kLrscWait).
      r.adapter = c.adapter.name;
      return r;
    });
  }
  exp::SweepRunner runner(threads);
  return runner.map(std::move(jobs));
}

}  // namespace colibri::litmus
