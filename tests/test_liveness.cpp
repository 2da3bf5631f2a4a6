// Liveness matrix for the two queue-based wait adapters.
//
// The histogram runs on Colibri and LRSCwait_q with 1 to 4 queue slots per
// bank, in each of its three modes (AMO-style RMW, TAS lock, MCS lock), on
// the 16-core test geometry. Every cell must either verify or stop with a
// WatchdogError soon after the watchdog horizon, so a livelock is
// diagnosed and never becomes a silent timeout. The expected outcome of
// every cell is pinned: only the MCS lock with one slot livelocks (its
// LRwait is refused "queue full" by a bank whose only slot holds a
// sleeping Mwait monitor).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "arch/config.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "fault/watchdog.hpp"
#include "test_util.hpp"
#include "workloads/histogram.hpp"

namespace colibri::test {
namespace {

using workloads::HistogramMode;

using Cell = std::tuple<const char*, std::uint32_t, HistogramMode>;

bool expectedToTrip(std::uint32_t slots, HistogramMode mode) {
  return slots == 1 && mode == HistogramMode::kMcsLock;
}

class Liveness : public ::testing::TestWithParam<Cell> {};

TEST_P(Liveness, VerifiesOrTripsTheWatchdogInTime) {
  const auto [adapter, slots, mode] = GetParam();
  exp::RunSpec spec;
  spec.config = exp::configFor(*exp::findAdapter(adapter), slots,
                               arch::SystemConfig::smallTest());
  spec.config.colibriQueuesPerController = slots;
  workloads::HistogramParams p;
  p.mode = mode;
  spec.params = p;
  spec.window = workloads::MeasureWindow{500, 2000};

  const sim::Cycle limit = spec.config.watchdogCycles;
  bool tripped = false;
  try {
    EXPECT_TRUE(exp::runOne(spec).verified);
  } catch (const fault::WatchdogError& e) {
    tripped = true;
    EXPECT_LE(e.trippedAt(), limit + limit / 8) << e.report();
  }
  EXPECT_EQ(tripped, expectedToTrip(slots, mode));
}

INSTANTIATE_TEST_SUITE_P(
    QueueAdapters, Liveness,
    ::testing::Combine(::testing::Values("colibri", "lrscwait"),
                       ::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(HistogramMode::kRmw,
                                         HistogramMode::kTasLock,
                                         HistogramMode::kMcsLock)),
    [](const auto& info) {
      return paramName(std::string(std::get<0>(info.param)) + "_" +
                       std::to_string(std::get<1>(info.param)) + "_" +
                       workloads::toString(std::get<2>(info.param)));
    });

}  // namespace
}  // namespace colibri::test
