// Spin-lock fairness and handoff study (windowed).
//
// Every participating core loops acquire -> critical section -> release ->
// think on one global test-and-set lock, using the TAS flavor the system's
// adapter natively runs (amoswap, LR/SC, or LRwait/SCwait). Two things are
// measured over the window that a plain throughput number hides:
//
//   - fairness: the per-core acquisition-count distribution (min / max /
//     percentiles via sim::Summary, Jain index via the rate summary) — a
//     TAS lock over a banked interconnect systematically favors cores
//     close to the lock's bank, and the wait-capable adapters queue
//     waiters instead, flattening the spread;
//   - handoff: the cycles each acquisition spent waiting, from first
//     attempt to lock held (the latency distribution of the handoff path).
//
// The critical section carries the same occupancy probe as the litmus
// suite (atomic add on an overlap word, old value must be 0), so a broken
// lock is caught as an exclusion violation, not a statistical anomaly.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

struct LockFairParams {
  static constexpr const char* kName = "lockfair";  ///< the reported name
  std::uint32_t csCycles = 8;     ///< compute inside the critical section
  std::uint32_t thinkCycles = 16; ///< local work between releases
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128);
  MeasureWindow window{};
  std::vector<sim::CoreId> cores;  ///< participants; empty = all
};

struct LockFairResult {
  /// Acquisitions per cycle over the window, plus the Jain index.
  RateResult rate;
  std::uint64_t acquisitions = 0;  ///< total, incl. outside the window
  /// Distribution of per-core window acquisition counts (the fairness
  /// spread: max/min >> 1 means the lock starves distant cores).
  sim::Summary acqSpread{};
  /// Cycles from first acquire attempt to lock held, per acquisition in
  /// the window. Exact: built from one CycleHistogram per run, so memory
  /// grows with the number of distinct waits, not with acquisitions.
  sim::Summary handoff{};
  std::uint64_t exclusionViolations = 0;  ///< must be 0
  bool verified = false;  ///< no overlap, lock left free, counts add up
};

LockFairResult runLockFair(arch::System& sys, const LockFairParams& p);

}  // namespace colibri::workloads
