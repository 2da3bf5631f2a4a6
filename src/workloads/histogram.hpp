// Concurrent histogram benchmark (paper Section V-A, Figs. 3 and 4).
//
// Every participating core repeatedly picks a random bin and atomically
// increments it. The bin count sets the contention level: 1 bin = all
// cores on one address/bank; 1024 bins spread across every bank. The mode
// names only the kernel's shape; the flavor comes from the system's
// adapter, so the modes cover all curves of both figures:
//
//   Fig. 3 (RMW):  kRmw — an AMO add, an LR/SC loop or LRwait/SCwait (the
//     LRSCwait curve family — ideal/128/1/Colibri — comes from the
//     adapter configuration too)
//   Fig. 4 (locks): kTasLock — the adapter's TAS spin lock (AMO, LR/SC or
//     LRwait); kMcsLock — an MCS lock whose waiters Mwait on wait-capable
//     adapters (the paper's MwaitLock) and poll on the others.
//
// The histogram is a one-region, one-role wgen kernel (wgen::runKernel):
// uniform over `bins` words, with `iterDelay` of think time per op. The
// run self-checks: the sum over all bins must equal the number of
// increments performed.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "wgen/spec.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

enum class HistogramMode : std::uint8_t { kRmw, kTasLock, kMcsLock };

[[nodiscard]] const char* toString(HistogramMode m);

struct HistogramParams {
  static constexpr const char* kName = "histogram";  ///< the reported name
  std::uint32_t bins = 16;
  HistogramMode mode = HistogramMode::kRmw;
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128);
  MeasureWindow window{};
  /// Per-iteration non-atomic work: bin selection, loop overhead.
  std::uint32_t iterDelay = 4;
  /// Participating cores; empty = all cores of the system.
  std::vector<sim::CoreId> cores;
};

struct HistogramResult {
  RateResult rate;
  std::uint64_t totalUpdates = 0;  ///< all increments, incl. outside window
  bool sumVerified = false;        ///< Σ bins == totalUpdates
  sim::Summary opLatency;          ///< per-op latency of window ops
};

/// The wgen kernel a histogram runs: one uniform region of `p.bins` words
/// and one role whose single phase is the mode's op class.
[[nodiscard]] wgen::KernelSpec histogramKernel(const HistogramParams& p);

/// Run the histogram on a fresh system. The MCS lock needs an adapter with
/// reservations (checked).
HistogramResult runHistogram(arch::System& sys, const HistogramParams& p);

}  // namespace colibri::workloads
