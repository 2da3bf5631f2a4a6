#include "sim/engine.hpp"

namespace colibri::sim {

std::size_t Engine::runUntil(Cycle horizon) {
  std::size_t ran = 0;
  auto before = [this](Cycle when, std::uint64_t seq) { onDispatch(when, seq); };
  auto drain = [&](Cycle limit) {
    while (const std::size_t n = queue_.runBatchIfAtMost(limit, before)) {
      ran += n;
    }
  };
  for (;;) {
    const Cycle p =
        probe_ != nullptr ? probe_->nextProbeAt() : kCycleNever;
    if (p == kCycleNever || p > horizon) {
      drain(horizon);  // no boundary left within the horizon
      break;
    }
    // Every batch strictly before the next boundary runs without a probe
    // check.
    if (p > 0) {
      drain(p - 1);
    }
    // Fire every boundary at or below the next event's cycle before that
    // cycle's batch executes — the probe then sees exactly the events
    // before its boundary applied. A boundary with no event at or past it
    // within the horizon does not fire.
    const Cycle next = queue_.minWhen();
    if (next == kCycleNever || next > horizon) {
      break;
    }
    for (Cycle q = p; q != kCycleNever && q <= next;
         q = probe_->nextProbeAt()) {
      probe_->onProbe(q);
    }
  }
  if (horizon != kCycleNever && now_ < horizon) {
    now_ = horizon;
  }
  return ran;
}

void Engine::clear() { queue_.clear(); }

}  // namespace colibri::sim
