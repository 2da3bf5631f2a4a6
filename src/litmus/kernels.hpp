// The litmus coroutine kernels: one worker Task per contender, sharing a
// LitmusCtx that lives on the harness stack frame for the duration of the
// run (the same ownership pattern as wgen's WgenCtx).
//
// Every mutual-exclusion kernel wraps the same critical-section body:
// an atomic occupancy probe (amoAdd ±1 on an `overlap` word — a nonzero
// old value at entry means another contender was inside) plus a
// deliberately non-atomic increment of a shared counter (load, compute,
// acked store) whose final value equals the entry count iff no update was
// lost. The probe catches overlap even when the racing increments happen
// to serialize; the counter catches lost updates even when the overlap
// windows miss each other — two independent detectors.
//
// Kernels must stay abortable: every wait loop checks ctx.stop (flipped by
// the harness watchdog) and backs out of the entry protocol cleanly, so a
// livelocked or deadlocked algorithm fails the *progress* invariant
// instead of hanging the simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/system.hpp"
#include "litmus/litmus.hpp"
#include "sim/task.hpp"
#include "sync/atomic.hpp"
#include "sync/spinlock.hpp"

namespace colibri::litmus {

/// Shared state of one litmus run. Addresses are simulated SPM words; the
/// host-side fields (perCoreEntries, exclusionViolations, ...) are safe to
/// mutate from any kernel because the engine is single-threaded.
struct LitmusCtx {
  const LitmusParams* params = nullptr;

  // Simulated shared words.
  sim::Addr counter = 0;  ///< non-atomically incremented inside the CS
  sim::Addr overlap = 0;  ///< occupancy probe (amoAdd +1 / -1)
  sim::Addr turn = 0;     ///< Dekker turn / Peterson victim
  sim::Addr lockWord = 0; ///< TAS / naive lock
  std::vector<sim::Addr> flags;    ///< Dekker/Peterson flag, bakery choosing
  std::vector<sim::Addr> numbers;  ///< bakery tickets

  // Adapter-matched operation selection.
  sync::RmwFlavor rmwFlavor = sync::RmwFlavor::kLrsc;
  sync::RmwFlavor casFlavor = sync::RmwFlavor::kLrsc;
  sync::SpinLockKind lockKind = sync::SpinLockKind::kLrscTas;
  bool casAvailable = true;  ///< false on the AMO-only adapter

  /// Contender index -> core id (strided across the core space).
  std::vector<sim::CoreId> coreOf;

  // Watchdog / results (host side).
  bool stop = false;
  std::vector<std::uint64_t> perCoreEntries;  ///< by contender index
  std::uint64_t exclusionViolations = 0;
  sim::Cycle lastDone = 0;  ///< cycle the last contender finished
};

/// The worker coroutine for contender `idx` of the configured algorithm.
/// Runs `iterations` critical-section entries (or successful increments
/// for kIncrementRace), honoring ctx.stop at every wait point.
[[nodiscard]] sim::Task litmusWorker(arch::System& sys, LitmusCtx& ctx,
                                     std::uint32_t idx);

}  // namespace colibri::litmus
