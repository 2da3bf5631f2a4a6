#include "sim/engine.hpp"

namespace colibri::sim {

bool Engine::dispatchOne(Cycle horizon) {
  // The event runs in place inside its (already unlinked) queue node, so
  // the callable may schedule new events — which mutates the queue — while
  // it executes, and dispatch pays no event move.
  return queue_.runEarliestIfAtMost(
      horizon, [this](Cycle when, std::uint64_t seq, Event& ev) {
        now_ = when;
        if (trace_ != nullptr) {
          trace_->push_back({when, seq});
        }
        ev();
        ++executed_;
      });
}

std::size_t Engine::runUntil(Cycle horizon) {
  std::size_t ran = 0;
  auto dispatch = [this](Cycle when, std::uint64_t seq, Event& ev) {
    now_ = when;
    if (trace_ != nullptr) {
      trace_->push_back({when, seq});
    }
    ev();
    ++executed_;
  };
  for (;;) {
    if (probe_ != nullptr) {
      // Fire every probe boundary at or below the next event's cycle
      // before that cycle's batch executes — the probe then sees exactly
      // the events before its boundary applied.
      const Cycle next = queue_.minWhen();
      if (next != kCycleNever && next <= horizon) {
        for (Cycle p = probe_->nextProbeAt(); p != kCycleNever && p <= next;
             p = probe_->nextProbeAt()) {
          probe_->onProbe(p);
        }
      }
    }
    const std::size_t n = queue_.runBatchIfAtMost(horizon, dispatch);
    if (n == 0) {
      break;
    }
    ran += n;
  }
  if (horizon != kCycleNever && now_ < horizon) {
    now_ = horizon;
  }
  return ran;
}

std::size_t Engine::step(std::size_t n) {
  std::size_t ran = 0;
  while (ran < n && dispatchOne(kCycleNever)) {
    ++ran;
  }
  return ran;
}

void Engine::clear() { queue_.clear(); }

void Engine::advanceTo(Cycle when) {
  COLIBRI_CHECK(when >= now_);
  COLIBRI_CHECK_MSG(queue_.minWhen() >= when,
                    "advanceTo would skip a pending event");
  now_ = when;
}

}  // namespace colibri::sim
