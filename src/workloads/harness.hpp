// Shared measurement scaffolding for workload runs.
//
// The paper reports steady-state rates over a measurement window. Every
// windowed workload runs the same protocol, owned by one Window: spawn
// workers at cycle 0, let them warm up, reset counters at `warmup`,
// measure until the horizon, snapshot the counters and flip the stop flag
// there, then drain (workers finish their current operation — an LRwait
// must still be closed by its SCwait — and exit, which also drains every
// reservation queue). A worker makes one stop check after its think delay
// (Window::startOp) and reports each finished op (Window::completeOp);
// only ops completed in [warmup, horizon) count toward the rate.
//
// One workload run per System instance: suspended coroutine frames and
// adapter reservation state are not recycled across workloads.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/system.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "sync/atomic.hpp"
#include "sync/spinlock.hpp"

namespace colibri::workloads {

using sim::Cycle;

/// The RMW flavor each adapter natively runs (AMO adds on the AMO-only
/// adapter, LRwait/SCwait on wait-capable ones, plain LR/SC otherwise) —
/// the mapping every workload kernel shares.
[[nodiscard]] sync::RmwFlavor rmwFlavorFor(arch::AdapterKind k);

/// The TAS spin-lock kind each adapter natively runs.
[[nodiscard]] sync::SpinLockKind lockKindFor(arch::AdapterKind k);

struct MeasureWindow {
  Cycle warmup = 3000;
  Cycle measure = 30000;

  [[nodiscard]] Cycle horizon() const { return warmup + measure; }
};

/// Aggregated hardware event counters over the measurement window —
/// everything the energy model (Table II) needs.
struct SystemCounters {
  std::uint64_t instructions = 0;  ///< issued ops incl. retries
  std::uint64_t computeCycles = 0;
  std::uint64_t sleepCycles = 0;  ///< cores asleep in LRwait/Mwait
  std::uint64_t stallCycles = 0;
  std::uint64_t bankAccesses = 0;
  std::array<std::uint64_t, 3> netMessages{};  ///< by Distance
  Cycle windowCycles = 0;
  std::uint32_t activeCores = 0;
};

/// Snapshot the window counters from a system whose stats were reset at
/// the window start. `participants` = cores that ran during the window.
[[nodiscard]] SystemCounters snapshotCounters(arch::System& sys,
                                              Cycle windowCycles,
                                              std::uint32_t participants);

/// Per-core completion counts → rate + fairness numbers for the figures.
struct RateResult {
  double opsPerCycle = 0.0;
  std::uint64_t opsInWindow = 0;
  std::vector<std::uint64_t> perCoreWindowOps;
  double fairnessJain = 1.0;
  double perCoreMinRate = 0.0;  ///< slowest core, ops/cycle (Fig. 6 band)
  double perCoreMaxRate = 0.0;  ///< fastest core, ops/cycle
  SystemCounters counters;
};

[[nodiscard]] RateResult summarizeRates(
    const std::vector<std::uint64_t>& perCoreWindowOps, Cycle windowCycles,
    const SystemCounters& counters);

/// The warmup-then-measure protocol of one windowed run. A runner builds
/// one Window, spawns a worker on each of cores() (a worker's position in
/// that list is its participant index) and calls run().
class Window {
 public:
  /// `cores` lists the participants; empty means every core of `sys`.
  Window(arch::System& sys, const MeasureWindow& w,
         std::vector<sim::CoreId> cores);
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  [[nodiscard]] const std::vector<sim::CoreId>& cores() const {
    return cores_;
  }
  [[nodiscard]] std::uint32_t participants() const {
    return static_cast<std::uint32_t>(cores_.size());
  }

  /// True from the stop event at the horizon on.
  [[nodiscard]] bool stopped() const { return stop_; }
  /// The stop flag, for retry loops that abandon at a retry point.
  [[nodiscard]] const bool* stopFlag() const { return &stop_; }

  /// The one stop check a worker makes after its think delay: whether it
  /// may start another op. False once the stop event has run.
  [[nodiscard]] bool startOp() const { return !stop_; }

  /// Record one finished op of participant `idx` at cycle `at`. True iff
  /// `at` lies in [warmup, horizon), where it counts toward the rate.
  bool completeOp(std::uint32_t idx, Cycle at) {
    ++completed_;
    if (at >= w_.warmup && at < w_.horizon()) {
      ++perCoreWindow_[idx];
      return true;
    }
    return false;
  }

  /// Every op recorded so far, inside the window or not.
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

  /// Schedule the stats reset at `warmup` and the stop at the horizon
  /// (after the spawns, so same-cycle events keep their order), run to the
  /// horizon and snapshot the counters there, call `atHorizon` if set,
  /// then drain (`who` names the workers in a drain failure) and summarize
  /// the per-participant window counts.
  RateResult run(const char* who,
                 const std::function<void()>& atHorizon = {});

 private:
  arch::System& sys_;
  MeasureWindow w_;
  std::vector<sim::CoreId> cores_;
  std::vector<std::uint64_t> perCoreWindow_;
  std::uint64_t completed_ = 0;
  bool stop_ = false;
};

}  // namespace colibri::workloads
