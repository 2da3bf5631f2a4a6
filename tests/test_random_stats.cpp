// RNG and statistics unit tests.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace colibri::sim {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Xoshiro, StreamsDiffer) {
  auto a = Xoshiro256::forStream(7, 0);
  auto b = Xoshiro256::forStream(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Xoshiro, BelowCoversAllValues) {
  Xoshiro256 rng(5);
  std::array<int, 8> seen{};
  for (int i = 0; i < 4000; ++i) {
    seen[rng.below(8)]++;
  }
  for (int v : seen) {
    EXPECT_GT(v, 300);  // each bucket near 500
  }
}

TEST(Xoshiro, Uniform01InUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Summary, BasicMoments) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto s = Summary::of(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, 1.4142, 1e-3);
}

TEST(Summary, EvenCountMedianAverages) {
  const std::vector<double> xs{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(Summary::of(xs).p50, 2.5);
}

TEST(Summary, EmptyIsZeros) {
  const auto s = Summary::of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, PercentilesInterpolateLinearly) {
  // 0..100: q * 100 lands exactly on the interpolated value.
  std::vector<double> xs(101);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i);
  }
  const auto s = Summary::of(xs);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);

  // Interpolation between ranks: p50 of {1, 2, 3, 10} sits halfway.
  const std::vector<double> four{1, 2, 3, 10};
  const auto f = Summary::of(four);
  EXPECT_DOUBLE_EQ(f.p50, 2.5);
  // q = 0.95 over 4 samples: pos = 2.85 → 3 + 0.85 * (10 - 3).
  EXPECT_DOUBLE_EQ(f.p95, 3.0 + 0.85 * 7.0);
}

TEST(Summary, PercentileSortedEdgeCases) {
  EXPECT_DOUBLE_EQ(Summary::percentileSorted({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(one, 0.99), 7.0);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(two, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(two, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(two, 0.5), 2.0);
  const auto s = Summary::of({});
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Summary, JainIndexFairVsUnfair) {
  const std::vector<std::uint64_t> fair{10, 10, 10, 10};
  const std::vector<std::uint64_t> unfair{40, 0, 0, 0};
  EXPECT_DOUBLE_EQ(Summary::jainIndex(fair), 1.0);
  EXPECT_DOUBLE_EQ(Summary::jainIndex(unfair), 0.25);
}

// --- CycleHistogram: exact against Summary::of ---------------------------

constexpr std::uint64_t kLimit = CycleHistogram::kDenseLimit;

CycleHistogram histogramOf(const std::vector<std::uint64_t>& xs) {
  CycleHistogram h;
  for (const auto x : xs) {
    h.add(x);
  }
  return h;
}

/// Summary::ofHistogram must match Summary::of bit for bit on everything
/// the reports print.
void expectExact(const CycleHistogram& h,
                 const std::vector<std::uint64_t>& xs, const char* what) {
  const std::vector<double> ds(xs.begin(), xs.end());
  const auto want = Summary::of(ds);
  const auto got = Summary::ofHistogram(h);
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.min, want.min) << what;
  EXPECT_EQ(got.max, want.max) << what;
  EXPECT_EQ(got.mean, want.mean) << what;
  EXPECT_EQ(got.p50, want.p50) << what;
  EXPECT_EQ(got.p95, want.p95) << what;
  EXPECT_EQ(got.p99, want.p99) << what;
  EXPECT_NEAR(got.stddev, want.stddev, 1e-9 * (1.0 + want.stddev)) << what;
}

void expectExact(const std::vector<std::uint64_t>& xs, const char* what) {
  expectExact(histogramOf(xs), xs, what);
}

TEST(CycleHistogram, EmptyMatchesSummary) {
  expectExact({}, "empty");
  EXPECT_EQ(CycleHistogram{}.count(), 0u);
}

TEST(CycleHistogram, OneSampleMatchesSummary) {
  expectExact({0}, "zero");
  expectExact({7}, "dense");
  expectExact({kLimit + 100}, "tail");
}

TEST(CycleHistogram, AllDenseMatchesSummary) {
  expectExact({1, 2, 3, 10}, "even n");
  expectExact({5, 5, 5, 1, 1, 200, 0, 3}, "repeats");
  std::vector<std::uint64_t> ramp(kLimit);
  for (std::uint64_t i = 0; i < kLimit; ++i) {
    ramp[i] = kLimit - 1 - i;
  }
  expectExact(ramp, "full dense range");
}

TEST(CycleHistogram, AllTailMatchesSummary) {
  expectExact({kLimit, kLimit * 4, kLimit + 1, 1u << 20, kLimit}, "tail");
}

TEST(CycleHistogram, DenseLimitBoundary) {
  expectExact({kLimit - 1}, "limit - 1");
  expectExact({kLimit}, "limit");
  expectExact({kLimit - 1, kLimit}, "straddle pair");
  expectExact({kLimit, kLimit - 1, kLimit - 1, kLimit, kLimit + 1, 0},
              "straddle");
}

TEST(CycleHistogram, RandomSamplesMatchSummary) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 0x5A17EDu, 0xC011B21u}) {
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> xs(1 + rng.below(5000));
    for (auto& x : xs) {
      // Mostly dense with a long tail, like op latencies under contention.
      x = rng.below(8) == 0 ? rng.below(kLimit * 64) : rng.below(kLimit);
    }
    expectExact(xs, "random");
  }
}

TEST(CycleHistogram, AddOrderDoesNotMatter) {
  // One histogram takes every core's samples in whatever order the engine
  // interleaves them, so the summary must not depend on add order.
  Xoshiro256 rng(0xADD);
  std::vector<std::uint64_t> xs(3000);
  for (auto& x : xs) {
    x = rng.below(4) == 0 ? kLimit + rng.below(40) : rng.below(kLimit);
  }
  const std::vector<std::uint64_t> reversed(xs.rbegin(), xs.rend());
  std::vector<std::uint64_t> interleaved;
  for (std::size_t start : {1u, 0u}) {
    for (std::size_t i = start; i < xs.size(); i += 2) {
      interleaved.push_back(xs[i]);
    }
  }
  const auto want = Summary::ofHistogram(histogramOf(xs));
  for (const auto& order : {reversed, interleaved}) {
    const auto got = Summary::ofHistogram(histogramOf(order));
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.stddev, want.stddev);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p95, want.p95);
    EXPECT_EQ(got.p99, want.p99);
  }
  expectExact(xs, "forward");
}

TEST(CycleHistogram, HeavilyRepeatedTailMatchesSummary) {
  // 10^5 samples, so the p50/p95/p99 positions are 49999.5, 94999.05 and
  // 98999.01. The counts put each interpolated pair (lo, lo + 1) across
  // a boundary: p50 across dense -> tail, p95 and p99 across tail entries.
  const std::vector<std::pair<std::uint64_t, std::size_t>> runs{
      {10, 30000},              // ranks 0..29999
      {kLimit - 1, 20000},      // ..49999, the last dense rank
      {kLimit, 45000},          // 50000..94999
      {kLimit + 1000, 4000},    // 95000..98999
      {kLimit + 52227, 1000},   // 99000..99999
  };
  std::vector<std::uint64_t> xs;
  for (const auto& [v, n] : runs) {
    xs.insert(xs.end(), n, v);
  }
  ASSERT_EQ(xs.size(), 100000u);
  // Add in a scrambled order: ascending runs would hide an order bug.
  std::vector<std::uint64_t> scrambled;
  for (std::size_t start = 0; start < 7; ++start) {
    for (std::size_t i = start; i < xs.size(); i += 7) {
      scrambled.push_back(xs[i]);
    }
  }
  const auto h = histogramOf(scrambled);
  expectExact(h, xs, "repeated tail");
  const auto s = Summary::ofHistogram(h);
  EXPECT_EQ(s.p50, (kLimit - 1 + kLimit) / 2.0);
  EXPECT_GT(s.p95, static_cast<double>(kLimit));
  EXPECT_LT(s.p95, static_cast<double>(kLimit + 1000));
  EXPECT_GT(s.p99, static_cast<double>(kLimit + 1000));
  EXPECT_LT(s.p99, static_cast<double>(kLimit + 52227));
}

}  // namespace
}  // namespace colibri::sim
