#include "workloads/prodcons.hpp"

#include <numeric>
#include <utility>

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "workloads/ticket_queue.hpp"

namespace colibri::workloads {

namespace {

constexpr sim::Word kPoison = 0xFFFFFFFF;

struct PcCtx {
  ProdConsParams params;
  TicketQueue queue;
  sync::RmwFlavor flavor = sync::RmwFlavor::kLrscWait;
  std::uint32_t activeProducers = 0;
  std::uint64_t produced = 0;
};

sim::Task producerTask(arch::System& sys, arch::Core& core, PcCtx& ctx,
                       const Window& win, bool poisoner) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0xF00D + core.id());
  sync::Backoff backoff(ctx.params.backoff, rng);
  const bool useMwait = ctx.params.useMwait;
  sim::Word item = 1;
  while (!win.stopped()) {
    co_await core.delay(ctx.params.produceDelay);
    if (!win.startOp()) {
      break;
    }
    co_await ctx.queue.enqueue(core, item++, ctx.flavor, useMwait, backoff);
    ++ctx.produced;
  }
  --ctx.activeProducers;
  if (poisoner) {
    // One designated producer shuts the pipeline down: one poison pill per
    // consumer (each consumer exits after eating exactly one). The pills
    // must be the LAST items in ticket order — a producer still blocked in
    // its final enqueue could otherwise land behind them and its item would
    // never be consumed — so wait for every producer to quiesce first.
    while (ctx.activeProducers > 0) {
      co_await core.delay(16);
    }
    for (std::uint32_t i = 0; i < ctx.params.consumers; ++i) {
      co_await ctx.queue.enqueue(core, kPoison, ctx.flavor, useMwait,
                                 backoff);
    }
  }
}

sim::Task consumerTask(arch::System& sys, arch::Core& core, PcCtx& ctx,
                       Window& win, std::uint32_t idx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0xCAFE + core.id());
  sync::Backoff backoff(ctx.params.backoff, rng);
  const bool useMwait = ctx.params.useMwait;
  while (true) {
    const auto v =
        co_await ctx.queue.dequeue(core, ctx.flavor, useMwait, backoff);
    if (v == kPoison) {
      co_return;
    }
    co_await core.delay(ctx.params.consumeDelay);
    win.completeOp(idx, sys.now());
  }
}

}  // namespace

ProdConsResult runProdCons(arch::System& sys, const ProdConsParams& p) {
  const auto adapter = sys.config().adapter;
  const bool waitCapable = adapter == arch::AdapterKind::kLrscWait ||
                           adapter == arch::AdapterKind::kColibri;
  COLIBRI_CHECK_MSG(waitCapable || !p.useMwait,
                    "Mwait consumers need a wait-capable adapter");
  COLIBRI_CHECK(p.producers >= 1 && p.consumers >= 1);
  COLIBRI_CHECK(std::uint64_t{p.producers} + p.consumers <= sys.numCores());

  PcCtx ctx;
  ctx.params = p;
  ctx.flavor =
      waitCapable ? sync::RmwFlavor::kLrscWait : sync::RmwFlavor::kLrsc;
  ctx.queue = TicketQueue::create(sys, p.capacity);
  ctx.activeProducers = p.producers;

  // Producers on cores [0, producers), consumers after them; a consumer's
  // participant index is its core id.
  std::vector<sim::CoreId> cores(p.producers + p.consumers);
  std::iota(cores.begin(), cores.end(), 0);
  Window win(sys, p.window, std::move(cores));
  for (std::uint32_t i = 0; i < p.producers; ++i) {
    sys.spawn(i, producerTask(sys, sys.core(i), ctx, win, i == 0));
  }
  for (sim::CoreId c = p.producers; c < win.participants(); ++c) {
    sys.spawn(c, consumerTask(sys, sys.core(c), ctx, win, c));
  }

  // Consumer-side counters over the window, read before the drain, whose
  // poison pills terminate every consumer.
  std::uint64_t consumerSleep = 0;
  std::uint64_t consumerIssued = 0;
  const auto rate = win.run("prod/cons", [&] {
    for (sim::CoreId c = p.producers; c < win.participants(); ++c) {
      consumerSleep += sys.core(c).stats().sleepCycles;
      consumerIssued += sys.core(c).stats().issued;
    }
  });
  const std::uint64_t windowItems = rate.opsInWindow;

  ProdConsResult res;
  res.itemsConsumed = win.completed();
  res.itemsInWindow = windowItems;
  res.counters = rate.counters;
  res.allItemsSeen = res.itemsConsumed == ctx.produced;
  COLIBRI_CHECK_MSG(res.allItemsSeen, "lost items: produced "
                                          << ctx.produced << " consumed "
                                          << res.itemsConsumed);
  res.itemsPerCycle = rate.opsPerCycle;
  const double consumerCycles =
      static_cast<double>(p.window.measure) * p.consumers;
  res.consumerSleepFraction =
      consumerCycles == 0.0 ? 0.0
                            : static_cast<double>(consumerSleep) /
                                  consumerCycles;
  res.consumerRequestsPerItem =
      windowItems == 0 ? 0.0
                       : static_cast<double>(consumerIssued) /
                             static_cast<double>(windowItems);
  return res;
}

}  // namespace colibri::workloads
