// Simulated-cycle watchdog: converts a hang into a diagnosed failure.
//
// The watchdog is a sim::ProgressProbe: the engine fires it at fixed
// simulated-cycle boundaries, so a probe always observes the state with
// exactly the events before its cycle executed. If no core has retired a
// *productive* operation for `limit` cycles while tasks are still
// outstanding, the probe throws a WatchdogError carrying a structured
// blame report built by the System (per stuck core: pipeline state,
// outstanding request and target bank; per referenced bank: adapter
// reservation/queue state).
//
// "Productive" excludes LR/LRwait grants and failed SC/SCwait commits: a
// livelocked retry loop keeps retiring LRs forever, so only completed
// work counts as progress. Probes never execute events, never consume
// sequence numbers and never advance simulated time — with no trip, a run
// with the watchdog attached is byte-identical to one without.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace colibri::fault {

/// Thrown by the watchdog on a trip. Derives from InvariantViolation so
/// every existing catch/rethrow path (SweepRunner, the CLI driver, tests)
/// propagates it; what() contains the summary plus the full blame report.
class WatchdogError : public sim::InvariantViolation {
 public:
  WatchdogError(const std::string& what, std::string report, sim::Cycle at)
      : sim::InvariantViolation(what), report_(std::move(report)), at_(at) {}

  /// The structured blame report alone (what() = summary + report).
  [[nodiscard]] const std::string& report() const { return report_; }
  [[nodiscard]] sim::Cycle trippedAt() const { return at_; }

 private:
  std::string report_;
  sim::Cycle at_;
};

class Watchdog final : public sim::ProgressProbe {
 public:
  /// Callbacks into the owning System (kept as std::functions so fault/
  /// never depends on arch/). All are invoked from onProbe only.
  struct Hooks {
    /// Max over all cores of the last productive-retirement cycle.
    std::function<sim::Cycle()> lastProgress;
    /// True when every spawned task has completed (no trip possible).
    std::function<bool()> allDone;
    /// Build the blame report for a trip at the given cycle.
    std::function<std::string(sim::Cycle)> blame;
  };

  Watchdog(sim::Cycle limit, Hooks hooks);

  [[nodiscard]] sim::Cycle limit() const { return limit_; }
  [[nodiscard]] sim::Cycle nextProbeAt() const override { return next_; }

  /// Throws WatchdogError when `at - lastProgress() >= limit` with tasks
  /// still outstanding; otherwise just schedules the next probe. Trip
  /// latency is bounded by limit + limit/8 simulated cycles.
  void onProbe(sim::Cycle at) override;

 private:
  sim::Cycle limit_;
  sim::Cycle step_;
  sim::Cycle next_;
  Hooks hooks_;
};

}  // namespace colibri::fault
