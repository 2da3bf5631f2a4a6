#include "workloads/hashtable.hpp"

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sync/atomic.hpp"

namespace colibri::workloads {

namespace {

// Keys carry (worker + 1) in the high half so they are unique across
// workers and never 0 (0 marks an empty slot).
constexpr sim::Word kWorkerShift = 16;

constexpr std::uint32_t hashSlot(sim::Word key, std::uint32_t slots) {
  return static_cast<std::uint32_t>((key * 2654435761u) % slots);
}

struct TableCtx {
  const HashTableParams* params = nullptr;
  std::vector<sim::Addr> slots;
  std::uint32_t insertBudget = 0;  ///< successful inserts per worker
  sync::RmwFlavor casFlavor = sync::RmwFlavor::kLrsc;
  std::vector<std::vector<sim::Word>> inserted;  ///< per worker, for verify
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  std::uint64_t probeSteps = 0;
};

/// Claim an empty slot for `key`, probing linearly from its hash. Returns
/// false only when the stop flag aborted the CAS before it claimed a slot.
sim::Co<bool> insertKey(arch::Core& core, TableCtx& ctx, const Window& win,
                        sim::Word key, sync::Backoff& backoff) {
  const auto n = static_cast<std::uint32_t>(ctx.slots.size());
  std::uint32_t probe = hashSlot(key, n);
  for (std::uint32_t step = 0; step < n; ++step) {
    ++ctx.probeSteps;
    const auto seen = co_await core.load(ctx.slots[probe]);
    if (seen.value == 0) {
      const auto cas =
          co_await sync::compareAndSwap(core, ctx.casFlavor, ctx.slots[probe],
                                        0, key, backoff, win.stopFlag());
      if (cas.swapped) {
        co_return true;
      }
      if (win.stopped()) {
        co_return false;  // abandoned at a retry point, slot not claimed
      }
      // Lost the slot to a concurrent insert; fall through to the next.
    }
    probe = (probe + 1) % n;
  }
  // The insert budget caps the load factor at 1/2, so a full sweep
  // without finding an empty slot means the table logic is broken.
  COLIBRI_CHECK_MSG(false, "hashtable: probe wrapped without an empty slot");
  co_return false;
}

/// Probe for a key this worker already published; it must be found before
/// an empty slot terminates the probe.
sim::Co<void> lookupKey(arch::Core& core, TableCtx& ctx, sim::Word key) {
  const auto n = static_cast<std::uint32_t>(ctx.slots.size());
  std::uint32_t probe = hashSlot(key, n);
  for (std::uint32_t step = 0; step < n; ++step) {
    ++ctx.probeSteps;
    const auto seen = co_await core.load(ctx.slots[probe]);
    if (seen.value == key) {
      co_return;
    }
    COLIBRI_CHECK_MSG(seen.value != 0,
                      "hashtable: published key vanished from its probe run");
    probe = (probe + 1) % n;
  }
  COLIBRI_CHECK_MSG(false, "hashtable: lookup wrapped the whole table");
}

sim::Task tableWorker(arch::System& sys, arch::Core& core, TableCtx& ctx,
                      Window& win, std::uint32_t idx) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, 0x7AB1E + core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  auto& mine = ctx.inserted[idx];
  sim::Word seq = 0;

  while (!win.stopped()) {
    co_await core.delay(ctx.params->iterDelay);
    if (!win.startOp()) {
      break;
    }
    if (mine.size() < ctx.insertBudget) {
      const sim::Word key =
          (static_cast<sim::Word>(idx + 1) << kWorkerShift) | (++seq);
      if (co_await insertKey(core, ctx, win, key, backoff)) {
        mine.push_back(key);
        ++ctx.inserts;
        win.completeOp(idx, sys.now());
      }
    } else {
      const auto& key = mine[rng.below(mine.size())];
      co_await lookupKey(core, ctx, key);
      ++ctx.lookups;
      win.completeOp(idx, sys.now());
    }
  }
}

/// Host-side verification after the drain: slot occupancy matches the
/// insert count and every published key is reachable from its hash.
bool verifyTable(arch::System& sys, const TableCtx& ctx) {
  std::uint64_t occupied = 0;
  for (const auto a : ctx.slots) {
    occupied += sys.peek(a) != 0 ? 1 : 0;
  }
  if (occupied != ctx.inserts) {
    return false;
  }
  const auto n = static_cast<std::uint32_t>(ctx.slots.size());
  for (const auto& keys : ctx.inserted) {
    for (const auto key : keys) {
      std::uint32_t probe = hashSlot(key, n);
      bool found = false;
      for (std::uint32_t step = 0; step < n; ++step) {
        const auto v = sys.peek(ctx.slots[probe]);
        if (v == key) {
          found = true;
          break;
        }
        if (v == 0) {
          break;  // probe run ended before the key: unreachable
        }
        probe = (probe + 1) % n;
      }
      if (!found) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

HashTableResult runHashTable(arch::System& sys, const HashTableParams& p) {
  COLIBRI_CHECK_MSG(sys.config().adapter != arch::AdapterKind::kAmoOnly,
                    "hashtable inserts are CAS loops and the AMO-only "
                    "adapter has no reservations");

  Window win(sys, p.window, p.cores);
  const auto participants = win.participants();

  TableCtx ctx;
  ctx.params = &p;
  const std::uint32_t slots = p.slots != 0 ? p.slots : 16 * participants;
  COLIBRI_CHECK_MSG(slots >= 2 * participants,
                    "hashtable: need at least two slots per core");
  // Cap the aggregate load factor at 1/2 so linear probes stay short and
  // an insert can always find an empty slot.
  const std::uint32_t budget =
      p.keysPerCore != 0 ? p.keysPerCore : slots / 2 / participants;
  COLIBRI_CHECK_MSG(budget >= 1, "hashtable: insert budget underflow");
  COLIBRI_CHECK_MSG(budget * participants <= slots / 2,
                    "hashtable: insert budget exceeds half the table");
  COLIBRI_CHECK_MSG(budget < (1u << kWorkerShift),
                    "hashtable: insert budget overflows the key sequence");
  ctx.insertBudget = budget;
  ctx.casFlavor = rmwFlavorFor(sys.config().adapter);

  auto& alloc = sys.allocator();
  const sim::Addr base = alloc.allocGlobal(slots);
  ctx.slots.reserve(slots);
  for (std::uint32_t i = 0; i < slots; ++i) {
    ctx.slots.push_back(base + i);
    sys.poke(base + i, 0);
  }

  ctx.inserted.resize(participants);

  for (std::uint32_t i = 0; i < participants; ++i) {
    const sim::CoreId c = win.cores()[i];
    sys.spawn(c, tableWorker(sys, sys.core(c), ctx, win, i));
  }

  HashTableResult res;
  res.rate = win.run("hashtable workers");
  res.inserts = ctx.inserts;
  res.lookups = ctx.lookups;
  res.probeSteps = ctx.probeSteps;
  res.verified = verifyTable(sys, ctx);
  COLIBRI_CHECK_MSG(res.verified, "hashtable: occupancy/reachability check "
                                  "failed, inserts="
                                      << ctx.inserts);
  return res;
}

}  // namespace colibri::workloads
