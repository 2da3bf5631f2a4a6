#include "workloads/msqueue.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sync/atomic.hpp"
#include "sync/spinlock.hpp"
#include "workloads/ticket_queue.hpp"

namespace colibri::workloads {

const char* toString(QueueVariant v) {
  switch (v) {
    case QueueVariant::kLrsc:
      return "lrsc";
    case QueueVariant::kLrscWait:
      return "lrscwait";
    case QueueVariant::kLock:
      return "amo-lock";
  }
  return "?";
}

namespace {

// Dequeued values are tagged (producer, sequence) so FIFO order per
// producer can be verified against the linearization order (the ticket).
constexpr sim::Word kProducerShift = 20;

struct QueueCtx {
  QueueParams params;
  TicketQueue queue;
  sim::Addr lock = 0;      // kLock only
  sim::Addr lockHead = 0;  // kLock: plain head index
  sim::Addr lockTail = 0;  // kLock: plain tail index
  std::vector<sim::Addr> lockVal;
  std::uint32_t capacity = 0;
  /// (dequeue ticket, value) pairs for post-run FIFO verification.
  std::vector<std::pair<sim::Word, sim::Word>> dequeueLog;
};

sim::Co<void> lockedEnqueue(arch::Core& core, QueueCtx& ctx, sim::Word v,
                            sync::Backoff& backoff) {
  while (true) {
    co_await sync::acquireLock(core, sync::SpinLockKind::kAmoTas, ctx.lock,
                               backoff);
    const auto h = co_await core.load(ctx.lockHead);
    const auto t = co_await core.load(ctx.lockTail);
    if (t.value - h.value >= ctx.capacity) {  // full
      co_await sync::releaseLock(core, ctx.lock);
      co_await core.delay(backoff.next());
      continue;
    }
    // Acked stores: both must commit before the release is observable.
    (void)co_await core.amoSwap(ctx.lockVal[t.value % ctx.capacity], v);
    (void)co_await core.amoSwap(ctx.lockTail, t.value + 1);
    co_await sync::releaseLock(core, ctx.lock);
    co_return;
  }
}

sim::Co<sim::Word> lockedDequeue(arch::Core& core, QueueCtx& ctx,
                                 sync::Backoff& backoff,
                                 sim::Word* ticketOut) {
  while (true) {
    co_await sync::acquireLock(core, sync::SpinLockKind::kAmoTas, ctx.lock,
                               backoff);
    const auto h = co_await core.load(ctx.lockHead);
    const auto t = co_await core.load(ctx.lockTail);
    if (t.value == h.value) {  // empty
      co_await sync::releaseLock(core, ctx.lock);
      co_await core.delay(backoff.next());
      continue;
    }
    const auto v = co_await core.load(ctx.lockVal[h.value % ctx.capacity]);
    (void)co_await core.amoSwap(ctx.lockHead, h.value + 1);
    co_await sync::releaseLock(core, ctx.lock);
    *ticketOut = h.value;
    co_return v.value;
  }
}

sim::Task queueWorker(arch::System& sys, arch::Core& core, QueueCtx& ctx,
                      Window& win, std::uint32_t idx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0x5EED + core.id());
  sync::Backoff backoff(ctx.params.backoff, rng);
  const auto variant = ctx.params.variant;
  const auto flavor = variant == QueueVariant::kLrscWait
                          ? sync::RmwFlavor::kLrscWait
                          : sync::RmwFlavor::kLrsc;
  const bool useMwait = variant == QueueVariant::kLrscWait;
  sim::Word seqNo = 0;

  while (!win.stopped()) {
    co_await core.delay(ctx.params.iterDelay);
    if (!win.startOp()) {
      break;
    }
    const sim::Word v = (core.id() << kProducerShift) | (++seqNo);
    sim::Word ticket = 0;
    sim::Word got = 0;
    if (variant == QueueVariant::kLock) {
      co_await lockedEnqueue(core, ctx, v, backoff);
      win.completeOp(idx, sys.now());
      got = co_await lockedDequeue(core, ctx, backoff, &ticket);
    } else {
      co_await ctx.queue.enqueue(core, v, flavor, useMwait, backoff);
      win.completeOp(idx, sys.now());
      got = co_await ctx.queue.dequeue(core, flavor, useMwait, backoff,
                                       &ticket);
    }
    win.completeOp(idx, sys.now());
    ctx.dequeueLog.emplace_back(ticket, got);
  }
}

bool verifyFifo(const QueueCtx& ctx, std::uint32_t numCores) {
  // Sort dequeues by ticket (the linearization order) and check that each
  // producer's sequence numbers appear strictly increasing. Prefill values
  // use producer id `numCores` (outside any real core).
  auto log = ctx.dequeueLog;
  std::sort(log.begin(), log.end());
  std::vector<sim::Word> lastSeen(numCores + 1, 0);
  for (const auto& [ticket, value] : log) {
    const sim::Word producer = value >> kProducerShift;
    const sim::Word s = value & ((1u << kProducerShift) - 1);
    if (producer >= lastSeen.size() || s <= lastSeen[producer]) {
      return false;
    }
    lastSeen[producer] = s;
  }
  return true;
}

}  // namespace

QueueResult runQueue(arch::System& sys, const QueueParams& p) {
  const auto adapter = sys.config().adapter;
  if (p.variant == QueueVariant::kLrscWait) {
    COLIBRI_CHECK_MSG(adapter == arch::AdapterKind::kLrscWait ||
                          adapter == arch::AdapterKind::kColibri,
                      "lrscwait queue needs a wait-capable adapter");
  }

  Window win(sys, p.window, p.cores);
  QueueCtx ctx;
  ctx.params = p;
  ctx.capacity = p.capacity != 0 ? p.capacity : 2 * win.participants();
  const std::uint32_t prefillCount =
      p.prefill != 0 ? p.prefill : ctx.capacity / 2;
  COLIBRI_CHECK(prefillCount <= ctx.capacity);
  std::vector<sim::Word> prefill;
  prefill.reserve(prefillCount);
  for (std::uint32_t i = 0; i < prefillCount; ++i) {
    prefill.push_back((sys.numCores() << kProducerShift) | (i + 1));
  }

  if (p.variant == QueueVariant::kLock) {
    auto& alloc = sys.allocator();
    ctx.lock = alloc.allocGlobal(1);
    ctx.lockHead = alloc.allocGlobal(1);
    ctx.lockTail = alloc.allocGlobal(1);
    const sim::Addr valBase = alloc.allocGlobal(ctx.capacity);
    for (std::uint32_t i = 0; i < ctx.capacity; ++i) {
      ctx.lockVal.push_back(valBase + i);
      sys.poke(valBase + i, 0);
    }
    for (std::uint32_t i = 0; i < prefillCount; ++i) {
      sys.poke(valBase + i, prefill[i]);
    }
    sys.poke(ctx.lock, 0);
    sys.poke(ctx.lockHead, 0);
    sys.poke(ctx.lockTail, prefillCount);
  } else {
    ctx.queue = TicketQueue::create(sys, ctx.capacity, prefill);
  }

  for (std::uint32_t i = 0; i < win.participants(); ++i) {
    const sim::CoreId c = win.cores()[i];
    sys.spawn(c, queueWorker(sys, sys.core(c), ctx, win, i));
  }

  QueueResult res;
  res.rate = win.run("queue workers");
  res.totalAccesses = win.completed();
  res.fifoVerified = verifyFifo(ctx, sys.numCores());
  COLIBRI_CHECK_MSG(res.fifoVerified, "queue FIFO order violated, variant="
                                          << toString(p.variant));
  return res;
}

}  // namespace colibri::workloads
