#include "workloads/prodcons.hpp"

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
  bool stopProducing = false;
  std::uint32_t activeProducers = 0;
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::uint64_t consumedInWindow = 0;
  sim::Cycle windowStart = 0;
  sim::Cycle windowEnd = 0;
};

sim::Task producerTask(arch::System& sys, arch::Core& core, PcCtx& ctx,
                       bool poisoner) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0xF00D + core.id());
  sync::Backoff backoff(ctx.params.backoff, rng);
  const bool useMwait = ctx.params.useMwait;
  sim::Word item = 1;
  while (!ctx.stopProducing) {
    co_await core.delay(ctx.params.produceDelay);
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

sim::Task consumerTask(arch::System& sys, arch::Core& core, PcCtx& ctx) {
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
    ++ctx.consumed;
    const auto now = sys.now();
    if (now >= ctx.windowStart && now < ctx.windowEnd) {
      ++ctx.consumedInWindow;
    }
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
  ctx.windowStart = p.window.warmup;
  ctx.windowEnd = p.window.horizon();

  std::vector<sim::CoreId> consumerCores;
  for (std::uint32_t i = 0; i < p.producers; ++i) {
    sys.spawn(i, producerTask(sys, sys.core(i), ctx, i == 0));
  }
  for (std::uint32_t i = 0; i < p.consumers; ++i) {
    const sim::CoreId c = p.producers + i;
    consumerCores.push_back(c);
    sys.spawn(c, consumerTask(sys, sys.core(c), ctx));
  }
  sys.at(ctx.windowStart, [&sys] { sys.resetStats(); });
  sys.at(ctx.windowEnd, [&ctx] { ctx.stopProducing = true; });

  sys.runUntil(ctx.windowEnd);
  // Consumer-side counters over the window (before the drain phase).
  std::uint64_t consumerSleep = 0;
  std::uint64_t consumerIssued = 0;
  for (const auto c : consumerCores) {
    consumerSleep += sys.core(c).stats().sleepCycles;
    consumerIssued += sys.core(c).stats().issued;
  }
  const std::uint64_t windowItems = ctx.consumedInWindow;
  const SystemCounters windowCounters =
      snapshotCounters(sys, p.window.measure, p.producers + p.consumers);

  sys.run();  // drain: poison pills terminate every consumer
  sys.rethrowFailures();
  COLIBRI_CHECK_MSG(sys.allTasksDone(), "prod/cons failed to drain");

  ProdConsResult res;
  res.itemsConsumed = ctx.consumed;
  res.itemsInWindow = windowItems;
  res.counters = windowCounters;
  res.allItemsSeen = ctx.consumed == ctx.produced;
  COLIBRI_CHECK_MSG(res.allItemsSeen, "lost items: produced "
                                          << ctx.produced << " consumed "
                                          << ctx.consumed);
  res.itemsPerCycle = p.window.measure == 0
                          ? 0.0
                          : static_cast<double>(windowItems) /
                                static_cast<double>(p.window.measure);
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
