// Chase–Lev work-stealing deque (owner pops, thieves steal; run to
// completion).
//
// One owner core drains a pre-filled ring of tasks from the bottom while
// every thief core steals from the top. The owner's pop publishes the new
// bottom with an *acked* store (the simulator's fence idiom — posted
// stores to different banks complete out of order, and Chase–Lev's
// correctness hinges on the thief seeing the decremented bottom before it
// reads it); top advances only by reservation CAS, in the owner/thief
// race for the last element too.
//
// Each task executes exactly once: execution bumps a per-task mark word
// with an atomic add and the old value must be 0 — a duplicate steal or a
// doubly-popped bottom element is caught immediately, not inferred from
// aggregate counts. A shared remaining-counter, decremented per execution,
// tells the thieves when to retire.
//
// This is the suite's completion-style concurrent workload (like matmul):
// the figure of merit is the makespan of the task set and the share of
// tasks the thieves won. The AMO-only adapter cannot run it (the top CAS
// needs reservations).
#pragma once

#include <cstdint>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

struct WsDequeParams {
  static constexpr const char* kName = "wsdeque";  ///< the reported name
  std::uint32_t tasks = 0;       ///< ring size; 0 = 8 * #cores
  std::uint32_t taskCycles = 12; ///< compute per task
  /// Exponential by default: every thief CASes the one top word, and on
  /// the single-slot LR/SC adapter a fixed short backoff livelocks (the
  /// competing LRs keep displacing each other's reservation); growth
  /// spaces the retries until someone's SC lands.
  sync::BackoffPolicy backoff = sync::BackoffPolicy::exponential(16, 2048);
};

struct WsDequeResult {
  sim::Cycle duration = 0;       ///< spawn -> last task retired
  std::uint64_t executed = 0;    ///< tasks run (must equal the ring size)
  std::uint64_t ownerPops = 0;   ///< tasks the owner took from the bottom
  std::uint64_t steals = 0;      ///< tasks thieves won from the top
  std::uint64_t failedSteals = 0;  ///< top CASes thieves lost
  std::uint64_t duplicates = 0;  ///< mark words found already set (must be 0)
  bool verified = false;  ///< every task ran exactly once, nothing remained
  /// Window counters over the whole run (stats are never reset).
  SystemCounters counters;
};

/// Run the deque to completion. Requires a reservation-capable adapter.
WsDequeResult runWsDeque(arch::System& sys, const WsDequeParams& p);

}  // namespace colibri::workloads
