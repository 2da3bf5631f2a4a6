// ThroughputResource unit tests: bandwidth limiting and FIFO queueing.
#include <gtest/gtest.h>

#include "sim/resource.hpp"

namespace colibri::sim {
namespace {

TEST(ThroughputResource, UncontendedGrantsImmediately) {
  ThroughputResource r(1);
  EXPECT_EQ(r.acquire(5), 5u);
  EXPECT_EQ(r.acquire(9), 9u);
}

TEST(ThroughputResource, SerializesSameCycleRequests) {
  ThroughputResource r(1);
  EXPECT_EQ(r.acquire(3), 3u);
  EXPECT_EQ(r.acquire(3), 4u);
  EXPECT_EQ(r.acquire(3), 5u);
}

TEST(ThroughputResource, MultipleSlotsPerCycle) {
  ThroughputResource r(2);
  EXPECT_EQ(r.acquire(0), 0u);
  EXPECT_EQ(r.acquire(0), 0u);
  EXPECT_EQ(r.acquire(0), 1u);
  EXPECT_EQ(r.acquire(0), 1u);
  EXPECT_EQ(r.acquire(0), 2u);
}

TEST(ThroughputResource, BacklogDelaysLaterArrivals) {
  ThroughputResource r(1);
  for (int i = 0; i < 10; ++i) {
    r.acquire(0);
  }
  // Cursor sits at cycle 9; an arrival at cycle 4 queues behind it.
  EXPECT_EQ(r.acquire(4), 10u);
}

TEST(ThroughputResource, PeekDoesNotClaim) {
  ThroughputResource r(1);
  EXPECT_EQ(r.peek(2), 2u);
  EXPECT_EQ(r.acquire(2), 2u);
  EXPECT_EQ(r.peek(2), 3u);
  EXPECT_EQ(r.peek(2), 3u);  // still 3: peek has no side effect
}

TEST(ThroughputResource, IdleGapResetsCursor) {
  ThroughputResource r(1);
  r.acquire(0);
  r.acquire(0);
  // Long idle gap: no residual backlog.
  EXPECT_EQ(r.acquire(100), 100u);
}

TEST(ThroughputResource, BulkAcquireOfOneEqualsScalarAcquire) {
  ThroughputResource bulk(2);
  ThroughputResource scalar(2);
  for (Cycle at : {0u, 0u, 0u, 5u, 5u, 6u}) {
    EXPECT_EQ(bulk.acquire(at, 1), scalar.acquire(at));
    EXPECT_EQ(bulk.peek(at), scalar.peek(at));
  }
}

TEST(ThroughputResource, BulkAcquireMatchesScalarLoopExactly) {
  // Property: acquire(at, n) is bit-equivalent (grant cycle and all future
  // behavior) to the scalar chain g = acquire(at); g = acquire(g); ... that
  // holdSlots backpressure used to issue. Randomized interleavings across
  // bandwidths; peek() at the arrival and at the grant probes the state.
  for (const std::uint32_t slots : {1u, 2u, 3u, 4u, 8u, 16u}) {
    ThroughputResource bulk(slots);
    ThroughputResource scalar(slots);
    std::uint64_t state = 0x9E3779B97F4A7C15ull ^ slots;
    Cycle at = 0;
    for (int i = 0; i < 500; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      at += (state >> 33) % 3;            // nondecreasing arrivals with jitter
      const auto n = static_cast<std::uint32_t>((state >> 17) % 9 + 1);
      const Cycle got = bulk.acquire(at, n);
      Cycle want = scalar.acquire(at);
      for (std::uint32_t k = 1; k < n; ++k) {
        want = scalar.acquire(want);
      }
      ASSERT_EQ(got, want) << "slots=" << slots << " i=" << i << " at=" << at
                           << " n=" << n;
      ASSERT_EQ(bulk.peek(at), scalar.peek(at));
      ASSERT_EQ(bulk.peek(got), scalar.peek(want));
    }
    // Residual state must match too: a final probe grants identically.
    EXPECT_EQ(bulk.acquire(at), scalar.acquire(at));
  }
}

class ThroughputSweep : public ::testing::TestWithParam<std::uint32_t> {};

// Property: over a dense burst of N arrivals at cycle 0, the k-th grant is
// at cycle k / slotsPerCycle — the resource never exceeds its bandwidth
// and never idles while work is queued.
TEST_P(ThroughputSweep, DenseBurstSaturatesExactly) {
  const std::uint32_t slots = GetParam();
  ThroughputResource r(slots);
  const std::uint32_t n = 64;
  for (std::uint32_t k = 0; k < n; ++k) {
    EXPECT_EQ(r.acquire(0), k / slots) << "grant " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, ThroughputSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

}  // namespace
}  // namespace colibri::sim
