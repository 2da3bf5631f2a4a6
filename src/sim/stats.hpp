// Measurement utilities.
//
// The paper's evaluation reports steady-state rates (updates/cycle,
// accesses/cycle), fairness (per-core min/max spread) and latency
// distributions over a measurement window (workloads::Window).
// CycleHistogram holds latency samples exactly, in memory that grows with
// the number of distinct values rather than of samples, and Summary
// computes the descriptive statistics the figures need.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace colibri::sim {

/// Exact multiset of non-negative integer cycle counts (per-op latencies).
/// Values below kDenseLimit are counted in a dense array grown lazily to
/// the largest value seen (at most 512 KiB), so recording a latency is
/// O(1) however long ops wait; values at or above it are counted in an
/// ordered map. Memory is the dense range plus one map node per distinct
/// tail value, however many samples the measurement window adds.
class CycleHistogram {
 public:
  static constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 16;

  void add(std::uint64_t v) {
    if (v < kDenseLimit) {
      if (v >= dense_.size()) {
        dense_.resize(v + 1, 0);
      }
      ++dense_[v];
    } else {
      ++tail_[v];
    }
  }

  [[nodiscard]] std::uint64_t count() const;

 private:
  friend struct Summary;
  std::vector<std::uint64_t> dense_;  ///< dense_[v] = samples equal to v
  /// tail_[v] = samples equal to v, for v >= kDenseLimit
  std::map<std::uint64_t, std::uint64_t> tail_;
};

/// Descriptive statistics over a sample (per-core op counts, latencies...).
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;

  static Summary of(std::span<const double> xs);
  static Summary ofCounts(std::span<const std::uint64_t> xs);
  /// Equal to `of` over the same samples as doubles for count, min, max,
  /// mean and percentiles (all exact below 2^53); stddev agrees to rounding.
  /// Walks the dense counts and then the counted tail in place.
  static Summary ofHistogram(const CycleHistogram& h);

  /// Linearly interpolated quantile over an *ascending-sorted* sample;
  /// q in [0, 1]. Empty samples yield 0.
  static double percentileSorted(std::span<const double> sorted, double q);

  /// Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair.
  static double jainIndex(std::span<const std::uint64_t> xs);
};

}  // namespace colibri::sim
