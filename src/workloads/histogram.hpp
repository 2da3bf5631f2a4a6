// Concurrent histogram benchmark (paper Section V-A, Figs. 3 and 4).
//
// Every participating core repeatedly picks a random bin and atomically
// increments it. The bin count sets the contention level: 1 bin = all
// cores on one address/bank; 1024 bins spread across every bank. Modes
// cover all curves of both figures:
//
//   Fig. 3 (RMW flavors):  kAmoAdd, kLrsc, kLrscWait  (the LRSCwait curve
//     family — ideal/128/1/Colibri — comes from the system's adapter
//     configuration, not the mode)
//   Fig. 4 (lock flavors): kAmoLock, kLrscLock, kLrwaitLock (spin locks,
//     128-cycle backoff) and kMcsMwaitLock / kMcsPollLock (MCS).
//
// The run self-checks: the sum over all bins must equal the number of
// increments performed.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

enum class HistogramMode : std::uint8_t {
  kAmoAdd,
  kLrsc,
  kLrscWait,
  kAmoLock,
  kLrscLock,
  kLrwaitLock,
  kMcsMwaitLock,
  kMcsPollLock,
};

[[nodiscard]] const char* toString(HistogramMode m);

/// Does this mode require a wait-capable adapter (LrscWait or Colibri)?
[[nodiscard]] bool needsWaitSupport(HistogramMode m);

struct HistogramParams {
  static constexpr const char* kName = "histogram";  ///< the reported name
  std::uint32_t bins = 16;
  HistogramMode mode = HistogramMode::kAmoAdd;
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128);
  MeasureWindow window{};
  /// Per-iteration non-atomic work: bin selection, loop overhead.
  std::uint32_t iterDelay = 4;
  /// Extra compute inside a lock-protected critical section.
  std::uint32_t csDelay = 1;
  /// Participating cores; empty = all cores of the system.
  std::vector<sim::CoreId> cores;
};

struct HistogramResult {
  RateResult rate;
  std::uint64_t totalUpdates = 0;  ///< all increments, incl. outside window
  bool sumVerified = false;        ///< Σ bins == totalUpdates
  sim::Cycle drainCycles = 0;      ///< cycles from stop flag to full drain
};

/// Run the histogram on a fresh system. The system's adapter must support
/// the mode's operations (checked).
HistogramResult runHistogram(arch::System& sys, const HistogramParams& p);

}  // namespace colibri::workloads
