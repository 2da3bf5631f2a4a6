#include "sim/stats.hpp"

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

void CycleHistogram::merge(const CycleHistogram& other) {
  if (other.dense_.size() > dense_.size()) {
    dense_.resize(other.dense_.size(), 0);
  }
  for (std::size_t v = 0; v < other.dense_.size(); ++v) {
    const std::uint32_t n = dense_[v] + other.dense_[v];
    COLIBRI_CHECK_MSG(n >= dense_[v], "CycleHistogram count overflow");
    dense_[v] = n;
  }
  tail_.insert(tail_.end(), other.tail_.begin(), other.tail_.end());
}

std::uint64_t CycleHistogram::count() const {
  std::uint64_t n = tail_.size();
  for (const std::uint32_t c : dense_) {
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
  std::vector<std::uint64_t> tail = h.tail_;
  std::sort(tail.begin(), tail.end());
  const std::size_t denseCount = s.count - tail.size();

  // The i-th smallest sample: a walk over cumulative dense counts, then
  // the sorted tail.
  const auto at = [&](std::size_t i) -> double {
    if (i >= denseCount) {
      return static_cast<double>(tail[i - denseCount]);
    }
    std::size_t below = 0;
    for (std::size_t v = 0;; ++v) {
      below += h.dense_[v];
      if (i < below) {
        return static_cast<double>(v);
      }
    }
  };
  s.min = at(0);
  s.max = at(s.count - 1);

  // An integer sum is exactly the in-order double sum while it stays
  // below 2^53.
  std::uint64_t sum = 0;
  for (std::size_t v = 0; v < h.dense_.size(); ++v) {
    sum += v * h.dense_[v];
  }
  for (const std::uint64_t x : tail) {
    sum += x;
  }
  const auto n = static_cast<double>(s.count);
  s.mean = static_cast<double>(sum) / n;
  double var = 0.0;
  for (std::size_t v = 0; v < h.dense_.size(); ++v) {
    const double d = static_cast<double>(v) - s.mean;
    var += static_cast<double>(h.dense_[v]) * d * d;
  }
  for (const std::uint64_t x : tail) {
    const double d = static_cast<double>(x) - s.mean;
    var += d * d;
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
