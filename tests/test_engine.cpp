// Engine unit tests: time ordering, FIFO tie-break, horizons and teardown.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace colibri::sim {
namespace {

TEST(Engine, StartsAtCycleZeroAndEmpty) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pendingEvents(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.scheduleAt(10, [&] { order.push_back(2); });
  e.scheduleAt(5, [&] { order.push_back(1); });
  e.scheduleAt(20, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 20u);
}

TEST(Engine, SameCycleEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.scheduleAt(7, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.scheduleAt(1, [&] {
    ++fired;
    e.scheduleAfter(4, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine e;
  e.scheduleAt(10, [&] {
    EXPECT_THROW(e.scheduleAt(5, [] {}), InvariantViolation);
  });
  e.run();
}

TEST(Engine, RunUntilStopsAtHorizonAndAdvancesNow) {
  Engine e;
  int fired = 0;
  e.scheduleAt(5, [&] { ++fired; });
  e.scheduleAt(15, [&] { ++fired; });
  const auto ran = e.runUntil(10);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 10u);  // clamped to horizon, not last event
  EXPECT_EQ(e.pendingEvents(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesEventsAtHorizon) {
  Engine e;
  int fired = 0;
  e.scheduleAt(10, [&] { ++fired; });
  e.runUntil(10);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StepExecutesExactlyN) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.scheduleAt(static_cast<Cycle>(i), [&] { ++fired; });
  }
  EXPECT_EQ(e.step(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.step(99), 2u);
  EXPECT_EQ(fired, 5);
}

TEST(Engine, ClearDropsPendingWithoutRunning) {
  Engine e;
  int fired = 0;
  e.scheduleAt(1, [&] { ++fired; });
  e.scheduleAt(2, [&] { ++fired; });
  e.clear();
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, AdvanceToMovesIdleClock) {
  Engine e;
  e.advanceTo(42);
  EXPECT_EQ(e.now(), 42u);
}

TEST(Engine, AdvanceToRefusesToSkipEvents) {
  Engine e;
  e.scheduleAt(10, [] {});
  EXPECT_THROW(e.advanceTo(11), InvariantViolation);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) {
    e.scheduleAt(static_cast<Cycle>(i), [] {});
  }
  e.run();
  EXPECT_EQ(e.executedEvents(), 7u);
}

}  // namespace
}  // namespace colibri::sim
