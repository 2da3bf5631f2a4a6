// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of events (move-only callables).
// Events scheduled for the same cycle execute in scheduling order (stable
// FIFO tie-break via a sequence number) — this matters for protocol
// modeling: two messages injected into the network in some order on the
// same cycle must not be reordered spontaneously.
//
// The hot path is allocation-free: events are sim::InlineEvent (40-byte
// inline capture buffer and one thunk pointer, event.hpp) and the pending
// set is a two-level calendar queue (per-cycle FIFO buckets over pooled
// 64-byte nodes with an overflow heap, eventqueue.hpp), so the
// steady-state schedule/dispatch cycle costs no heap traffic and no
// O(log n) sift. runUntil() is the one dispatch loop (run() is runUntil
// with no horizon): it drains whole cycles at a time
// (EventQueue::runBatchIfAtMost), scanning for the queue's minimum once
// per cycle instead of once per event, and runs and destroys each closure
// with one indirect call. It consults the progress probe only when the
// next cycle reaches its boundary: batches below the boundary run without
// it.
//
// The engine is single-threaded and fully deterministic: the dispatch
// order is a pure function of the scheduled (when, seq) keys. Host
// parallelism lives one level up, in exp::SweepRunner, which runs
// independent simulations side by side.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/event.hpp"
#include "sim/eventqueue.hpp"
#include "sim/types.hpp"

namespace colibri::sim {

/// One dispatched event's identity: cycle and global sequence number.
/// Captured via Engine::setTrace; determinism tests compare these streams
/// across reruns (any reordering of any event fails the comparison).
struct DispatchRecord {
  Cycle when;
  std::uint64_t seq;
  friend bool operator==(const DispatchRecord&,
                         const DispatchRecord&) = default;
};

/// Simulated-cycle progress probe (e.g. the fault-layer watchdog). The
/// engine fires onProbe(p) for every boundary p = nextProbeAt() before
/// executing any event at cycle >= p, so a probe observes the state with
/// exactly the events before p applied. A boundary fires only once an event
/// at or past it is due within the run's horizon. Probes never execute
/// events, never consume sequence numbers and never advance now(); onProbe
/// may throw to abort the run.
class ProgressProbe {
 public:
  virtual ~ProgressProbe() = default;
  /// Next boundary to fire at (kCycleNever = no more probes). May change
  /// only inside onProbe: the engine reads it once per boundary.
  [[nodiscard]] virtual Cycle nextProbeAt() const = 0;
  /// Fired at boundary `at`; must advance nextProbeAt() past `at`.
  virtual void onProbe(Cycle at) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Advances only inside run()/runUntil().
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedule `f` to run at absolute cycle `when` (must be >= now()).
  /// Accepts any void() callable that fits InlineEvent's inline buffer (a
  /// larger one does not compile); the closure is constructed directly
  /// inside a pooled queue node.
  template <typename F>
  void scheduleAt(Cycle when, F&& f) {
    COLIBRI_CHECK_MSG(when >= now_, "scheduleAt into the past: when="
                                        << when << " now=" << now_);
    queue_.schedule(when, std::forward<F>(f));
  }

  /// Run until the event queue is empty. Returns the number of events run.
  /// now() is left at the last executed event's cycle.
  std::size_t run() { return runUntil(kCycleNever); }

  /// Run events with time <= horizon and leave later events queued. A
  /// finite horizon then sets now() to the horizon (unless now() is
  /// already later), not to the last executed event's cycle, so a later
  /// scheduleAt below the horizon is an error. Returns the number of
  /// events executed.
  std::size_t runUntil(Cycle horizon);

  /// Drop all pending events without running them. Used at teardown so that
  /// no queued callback can touch objects that are about to be destroyed.
  /// Splices the queue's node lists back onto its free-list — no per-item
  /// heap frees or heap rebalancing.
  void clear();

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pendingEvents() const { return queue_.size(); }
  /// Events dispatched so far (an event that throws counts).
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }
  /// Queue nodes allocated so far (EventQueue::allocatedNodes); steady
  /// state stops moving it.
  [[nodiscard]] std::size_t allocatedEventNodes() const {
    return queue_.allocatedNodes();
  }

  /// Record every dispatched event's (when, seq) into `trace` (nullptr to
  /// stop). Test hook for order-equivalence checks; adds one predictable
  /// branch to dispatch when unset.
  void setTrace(std::vector<DispatchRecord>* trace) { trace_ = trace; }

  /// Attach (or detach, with nullptr) a progress probe. Must be set before
  /// the run starts (see ProgressProbe).
  void setProgressProbe(ProgressProbe* probe) { probe_ = probe; }
  [[nodiscard]] ProgressProbe* progressProbe() const { return probe_; }

 private:
  /// Bookkeeping just before an event runs.
  void onDispatch(Cycle when, std::uint64_t seq) {
    now_ = when;
    if (trace_ != nullptr) {
      trace_->push_back({when, seq});
    }
    ++executed_;
  }

  EventQueue queue_;
  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<DispatchRecord>* trace_ = nullptr;
  ProgressProbe* probe_ = nullptr;
};

}  // namespace colibri::sim
