// Backoff policies for retry loops.
//
// The paper's spin-lock baselines use a fixed 128-cycle backoff; the
// related-work section discusses exponential backoff. Both are provided so
// the ablation bench can sweep policies. Jitter (±25%) avoids lockstep
// retry convoys, which otherwise produce artificial periodicity in the
// simulator.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "sim/types.hpp"

namespace colibri::sync {

enum class BackoffKind : std::uint8_t { kFixed, kExponential };

struct BackoffPolicy {
  BackoffKind kind = BackoffKind::kFixed;
  std::uint32_t base = 128;  ///< cycles (paper's lock experiments use 128)
  std::uint32_t max = 4096;  ///< cap for exponential growth

  /// No wait: a fixed zero-cycle backoff, which draws no jitter.
  static BackoffPolicy none() { return fixed(0); }
  static BackoffPolicy fixed(std::uint32_t cycles = 128) {
    return {BackoffKind::kFixed, cycles, cycles};
  }
  static BackoffPolicy exponential(std::uint32_t base = 16,
                                   std::uint32_t max = 4096) {
    return {BackoffKind::kExponential, base, max};
  }
};

/// Per-call-site backoff state. Create one per retry loop; call next() on
/// every failure and reset() on success.
class Backoff {
 public:
  Backoff(const BackoffPolicy& policy, sim::Xoshiro256& rng)
      : policy_(policy), rng_(rng), current_(policy.base) {}

  /// Cycles to wait before the next retry (0 for BackoffPolicy::none()).
  [[nodiscard]] sim::Cycle next() {
    switch (policy_.kind) {
      case BackoffKind::kFixed:
        return jitter(policy_.base);
      case BackoffKind::kExponential: {
        const sim::Cycle wait = jitter(current_);
        current_ = current_ * 2 > policy_.max ? policy_.max : current_ * 2;
        return wait;
      }
    }
    return 0;
  }

  void reset() { current_ = policy_.base; }

 private:
  [[nodiscard]] sim::Cycle jitter(std::uint32_t around) {
    if (around == 0) {
      return 0;
    }
    // Uniform in [0.75, 1.25) * around.
    const std::uint64_t lo = around - around / 4;
    return lo + rng_.below(around / 2 + 1);
  }

  BackoffPolicy policy_;
  sim::Xoshiro256& rng_;
  std::uint32_t current_;
};

}  // namespace colibri::sync
