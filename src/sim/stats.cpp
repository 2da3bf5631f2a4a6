#include "sim/stats.hpp"

#include <algorithm>

namespace colibri::sim {

namespace {

/// Linearly interpolated q-quantile of an ascending sample of n values,
/// where at(i) is the i-th smallest. Shared by the sorted-vector and the
/// histogram paths so both round identically.
template <typename At>
double interpolateRank(std::size_t n, double q, At at) {
  if (n == 0) {
    return 0.0;
  }
  if (q <= 0.0) {
    return at(0);
  }
  if (q >= 1.0) {
    return at(n - 1);
  }
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= n) {
    return at(n - 1);
  }
  const double a = at(lo);
  return a + (at(lo + 1) - a) * (pos - static_cast<double>(lo));
}

}  // namespace

std::uint64_t CycleHistogram::count() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : dense_) {
    n += c;
  }
  for (const auto& [v, c] : tail_) {
    n += c;
  }
  return n;
}

Summary Summary::of(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) {
    return s;
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double x : sorted) {
    sum += x;
  }
  s.mean = sum / static_cast<double>(sorted.size());
  double var = 0.0;
  for (double x : sorted) {
    var += (x - s.mean) * (x - s.mean);
  }
  s.stddev = std::sqrt(var / static_cast<double>(sorted.size()));
  s.p50 = percentileSorted(sorted, 0.50);
  s.p95 = percentileSorted(sorted, 0.95);
  s.p99 = percentileSorted(sorted, 0.99);
  return s;
}

Summary Summary::ofHistogram(const CycleHistogram& h) {
  Summary s;
  s.count = h.count();
  if (s.count == 0) {
    return s;
  }

  // The i-th smallest sample: a walk over the dense counts, then over the
  // counted tail.
  const auto at = [&](std::size_t i) -> double {
    for (std::size_t v = 0; v < h.dense_.size(); ++v) {
      if (i < h.dense_[v]) {
        return static_cast<double>(v);
      }
      i -= h.dense_[v];
    }
    auto it = h.tail_.begin();  // i < count, so the walk ends in the map
    for (; i >= it->second; ++it) {
      i -= it->second;
    }
    return static_cast<double>(it->first);
  };
  s.min = at(0);
  s.max = at(s.count - 1);

  // An integer sum is exactly the in-order double sum while it stays
  // below 2^53.
  std::uint64_t sum = 0;
  for (std::size_t v = 0; v < h.dense_.size(); ++v) {
    sum += v * h.dense_[v];
  }
  for (const auto& [v, n] : h.tail_) {
    sum += v * n;
  }
  const auto n = static_cast<double>(s.count);
  s.mean = static_cast<double>(sum) / n;
  double var = 0.0;
  for (std::size_t v = 0; v < h.dense_.size(); ++v) {
    const double d = static_cast<double>(v) - s.mean;
    var += static_cast<double>(h.dense_[v]) * d * d;
  }
  // One d * d term per tail sample, in ascending order, as a sorted sample
  // adds them; c * d * d would round differently.
  for (const auto& [v, c] : h.tail_) {
    const double d = static_cast<double>(v) - s.mean;
    for (std::uint64_t k = 0; k < c; ++k) {
      var += d * d;
    }
  }
  s.stddev = std::sqrt(var / n);
  s.p50 = interpolateRank(s.count, 0.50, at);
  s.p95 = interpolateRank(s.count, 0.95, at);
  s.p99 = interpolateRank(s.count, 0.99, at);
  return s;
}

double Summary::percentileSorted(std::span<const double> sorted, double q) {
  return interpolateRank(sorted.size(), q,
                         [&](std::size_t i) { return sorted[i]; });
}

Summary Summary::ofCounts(std::span<const std::uint64_t> xs) {
  std::vector<double> d(xs.begin(), xs.end());
  return of(d);
}

double Summary::jainIndex(std::span<const std::uint64_t> xs) {
  if (xs.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sumSq = 0.0;
  for (std::uint64_t x : xs) {
    const double d = static_cast<double>(x);
    sum += d;
    sumSq += d * d;
  }
  if (sumSq == 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(xs.size()) * sumSq);
}

}  // namespace colibri::sim
