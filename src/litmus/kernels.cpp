#include "litmus/kernels.hpp"

#include <algorithm>

#include "sim/co.hpp"
#include "sim/random.hpp"

namespace colibri::litmus {

namespace {

using arch::Core;

/// Wait-loop poll pacing, in cycles; also sizes the think-time jitter.
constexpr std::uint32_t kPollCycles = 4;

/// An ordering-sensitive protocol write: acked (amoSwap) in fenced mode so
/// it is globally visible before the next load; posted otherwise, which
/// re-opens the store->load race the flag algorithms assume away.
sim::Co<void> protocolStore(Core& core, const LitmusCtx& ctx, sim::Addr a,
                            sim::Word v) {
  if (ctx.params->fenced) {
    (void)co_await core.amoSwap(a, v);
  } else {
    (void)co_await core.store(a, v);
  }
}

/// The shared critical-section body: occupancy probe + non-atomic counter
/// increment (see header). Must only run while the contender believes it
/// holds the exclusion the algorithm under test provides.
sim::Co<void> criticalSection(Core& core, LitmusCtx& ctx) {
  const auto occ = co_await core.amoAdd(ctx.overlap, 1);
  if (occ.value != 0) {
    ++ctx.exclusionViolations;  // someone else was already inside
  }
  const auto v = co_await core.load(ctx.counter);
  co_await core.delay(ctx.params->csCycles);
  // Acked store so the increment is complete before we leave; the RMW as a
  // whole is still non-atomic — overlapping entries lose updates.
  (void)co_await core.amoSwap(ctx.counter, v.value + 1);
  (void)co_await core.amoAdd(ctx.overlap, static_cast<sim::Word>(-1));
}

// --- Dekker (2 contenders) ----------------------------------------------

sim::Co<bool> dekkerEnter(Core& core, LitmusCtx& ctx, std::uint32_t i) {
  const std::uint32_t j = 1 - i;
  co_await protocolStore(core, ctx, ctx.flags[i], 1);
  while (true) {
    if (ctx.stop) {
      co_await protocolStore(core, ctx, ctx.flags[i], 0);
      co_return false;
    }
    const auto other = co_await core.load(ctx.flags[j]);
    if (other.value == 0) {
      co_return true;
    }
    const auto t = co_await core.load(ctx.turn);
    if (t.value == j) {
      // Not our turn: step back, wait for the turn word, re-contend.
      co_await protocolStore(core, ctx, ctx.flags[i], 0);
      while (!ctx.stop) {
        const auto t2 = co_await core.load(ctx.turn);
        if (t2.value != j) {
          break;
        }
        co_await core.delay(kPollCycles);
      }
      if (ctx.stop) {
        co_return false;
      }
      co_await protocolStore(core, ctx, ctx.flags[i], 1);
    } else {
      co_await core.delay(kPollCycles);
    }
  }
}

sim::Co<void> dekkerExit(Core& core, LitmusCtx& ctx, std::uint32_t i) {
  co_await protocolStore(core, ctx, ctx.turn, 1 - i);
  co_await protocolStore(core, ctx, ctx.flags[i], 0);
}

// --- Peterson (2 contenders) ----------------------------------------------

sim::Co<bool> petersonEnter(Core& core, LitmusCtx& ctx, std::uint32_t i) {
  const std::uint32_t j = 1 - i;
  co_await protocolStore(core, ctx, ctx.flags[i], 1);
  co_await protocolStore(core, ctx, ctx.turn, j);  // "you first"
  while (!ctx.stop) {
    const auto fj = co_await core.load(ctx.flags[j]);
    if (fj.value == 0) {
      co_return true;
    }
    const auto t = co_await core.load(ctx.turn);
    if (t.value != j) {
      co_return true;
    }
    co_await core.delay(kPollCycles);
  }
  co_await protocolStore(core, ctx, ctx.flags[i], 0);
  co_return false;
}

sim::Co<void> petersonExit(Core& core, LitmusCtx& ctx, std::uint32_t i) {
  co_await protocolStore(core, ctx, ctx.flags[i], 0);
}

// --- Lamport bakery (N contenders) ----------------------------------------

sim::Co<bool> bakeryEnter(Core& core, LitmusCtx& ctx, std::uint32_t i) {
  const auto n = static_cast<std::uint32_t>(ctx.numbers.size());
  // flags[] doubles as the bakery's choosing[] array.
  co_await protocolStore(core, ctx, ctx.flags[i], 1);
  sim::Word maxTicket = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const auto v = co_await core.load(ctx.numbers[k]);
    maxTicket = std::max(maxTicket, v.value);
  }
  const sim::Word mine = maxTicket + 1;
  co_await protocolStore(core, ctx, ctx.numbers[i], mine);
  co_await protocolStore(core, ctx, ctx.flags[i], 0);
  for (std::uint32_t k = 0; k < n; ++k) {
    if (k == i) {
      continue;
    }
    while (!ctx.stop) {  // wait until k is done choosing
      const auto c = co_await core.load(ctx.flags[k]);
      if (c.value == 0) {
        break;
      }
      co_await core.delay(kPollCycles);
    }
    while (!ctx.stop) {  // wait until (mine, i) has priority over (nk, k)
      const auto nk = co_await core.load(ctx.numbers[k]);
      if (nk.value == 0 || nk.value > mine ||
          (nk.value == mine && k > i)) {
        break;
      }
      co_await core.delay(kPollCycles);
    }
    if (ctx.stop) {
      co_await protocolStore(core, ctx, ctx.numbers[i], 0);
      co_return false;
    }
  }
  co_return true;
}

sim::Co<void> bakeryExit(Core& core, LitmusCtx& ctx, std::uint32_t i) {
  co_await protocolStore(core, ctx, ctx.numbers[i], 0);
}

// --- TAS baseline / broken naive lock --------------------------------------

sim::Co<bool> naiveEnter(Core& core, LitmusCtx& ctx, sync::Backoff& backoff) {
  while (!ctx.stop) {
    const auto v = co_await core.load(ctx.lockWord);
    if (v.value == 0) {
      // Check-then-act without an atomic RMW: the load->store gap is the
      // bug this kernel exists to demonstrate.
      co_await protocolStore(core, ctx, ctx.lockWord, 1);
      co_return true;
    }
    co_await core.delay(backoff.next());
  }
  co_return false;
}

// --- Mixed LL/SC-vs-CAS increment race -------------------------------------

/// One successful increment of the shared counter: even contenders use the
/// adapter's fetch-and-add path, odd contenders a CAS retry loop — the two
/// must interoperate without losing updates (reservation-based CAS fails
/// on *any* intervening write, including the AMO adds).
sim::Co<bool> raceIncrement(Core& core, LitmusCtx& ctx, std::uint32_t idx,
                            sync::Backoff& backoff) {
  const bool useCas = ctx.casAvailable && (idx % 2 == 1);
  if (!useCas) {
    const auto r = co_await sync::fetchAdd(core, ctx.rmwFlavor, ctx.counter,
                                           1, backoff, &ctx.stop);
    co_return r.performed;
  }
  auto expected = (co_await core.load(ctx.counter)).value;
  while (!ctx.stop) {
    const auto r =
        co_await sync::compareAndSwap(core, ctx.casFlavor, ctx.counter,
                                      expected, expected + 1, backoff,
                                      &ctx.stop);
    if (r.swapped) {
      co_return true;
    }
    expected = r.observed;
    co_await core.delay(backoff.next());
  }
  co_return false;
}

}  // namespace

sim::Task litmusWorker(arch::System& sys, LitmusCtx& ctx, std::uint32_t idx) {
  auto& core = sys.core(ctx.coreOf[idx]);
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff backoff(ctx.params->backoff, rng);
  const auto algo = ctx.params->algo;

  for (std::uint32_t it = 0; it < ctx.params->iterations; ++it) {
    if (ctx.stop) {
      break;
    }
    if (algo == Algorithm::kIncrementRace) {
      if (!co_await raceIncrement(core, ctx, idx, backoff)) {
        break;
      }
      ++ctx.perCoreEntries[idx];
    } else {
      bool entered = false;
      switch (algo) {
        case Algorithm::kDekker:
          entered = co_await dekkerEnter(core, ctx, idx);
          break;
        case Algorithm::kPeterson:
          entered = co_await petersonEnter(core, ctx, idx);
          break;
        case Algorithm::kBakery:
          entered = co_await bakeryEnter(core, ctx, idx);
          break;
        case Algorithm::kTasLock:
          co_await sync::acquireLock(core, ctx.lockKind, ctx.lockWord,
                                     backoff);
          entered = true;
          break;
        case Algorithm::kNaiveLock:
          entered = co_await naiveEnter(core, ctx, backoff);
          break;
        case Algorithm::kIncrementRace:
          break;  // handled above
      }
      if (!entered) {
        break;
      }
      co_await criticalSection(core, ctx);
      switch (algo) {
        case Algorithm::kDekker:
          co_await dekkerExit(core, ctx, idx);
          break;
        case Algorithm::kPeterson:
          co_await petersonExit(core, ctx, idx);
          break;
        case Algorithm::kBakery:
          co_await bakeryExit(core, ctx, idx);
          break;
        case Algorithm::kTasLock:
          co_await sync::releaseLock(core, ctx.lockWord);
          break;
        case Algorithm::kNaiveLock:
          co_await protocolStore(core, ctx, ctx.lockWord, 0);
          break;
        case Algorithm::kIncrementRace:
          break;
      }
      ++ctx.perCoreEntries[idx];
    }
    // Randomized think time varies the interleavings between iterations.
    co_await core.delay(1 + rng.below(2 * kPollCycles + 1));
  }
  ctx.lastDone = std::max(ctx.lastDone, sys.now());
}

}  // namespace colibri::litmus
