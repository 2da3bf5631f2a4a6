// Engine unit tests: time ordering, FIFO tie-break, horizons, teardown,
// the progress-probe contract and the invariant-check diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <utility>
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
    e.scheduleAt(e.now() + 4, [&] { ++fired; });
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
  // runUntil moves now() past the last dispatched event (cycle 10), so a
  // cycle between the two is past for the engine but not for its queue.
  e.runUntil(20);
  EXPECT_EQ(e.now(), 20u);
  EXPECT_THROW(e.scheduleAt(15, [] {}), InvariantViolation);
  EXPECT_EQ(e.pendingEvents(), 0u);
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

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) {
    e.scheduleAt(static_cast<Cycle>(i), [] {});
  }
  e.run();
  EXPECT_EQ(e.executedEvents(), 7u);
}

// One log of probe firings ('P', boundary, now() at the firing) and event
// executions ('E', cycle, cycle), in the order the engine produced them.
struct Mark {
  char kind;
  Cycle at;
  Cycle now;
  friend bool operator==(const Mark&, const Mark&) = default;
};

class ListProbe final : public ProgressProbe {
 public:
  ListProbe(Engine& e, std::vector<Cycle> boundaries, std::vector<Mark>& log)
      : e_(e), boundaries_(std::move(boundaries)), log_(log) {}
  [[nodiscard]] Cycle nextProbeAt() const override {
    return next_ < boundaries_.size() ? boundaries_[next_] : kCycleNever;
  }
  void onProbe(Cycle at) override {
    log_.push_back({'P', at, e_.now()});
    ++next_;
  }

 private:
  Engine& e_;
  std::vector<Cycle> boundaries_;
  std::vector<Mark>& log_;
  std::size_t next_ = 0;
};

TEST(Engine, ProgressProbeFiresEveryBoundaryBeforeTheEventsAtOrPastIt) {
  Engine e;
  std::vector<Mark> log;
  ListProbe probe(e, {5, 6, 7, 10, 11, 20, 45, 55, 100}, log);
  e.setProgressProbe(&probe);
  auto mark = [&] { log.push_back({'E', e.now(), e.now()}); };
  e.scheduleAt(4, [&] {
    mark();
    e.scheduleAt(12, mark);  // scheduled mid-run, past boundaries 5..11
  });
  e.scheduleAt(10, mark);  // on a boundary: fires after it
  e.scheduleAt(10, mark);
  e.scheduleAt(20, mark);  // on the only boundary since the last firing
  e.scheduleAt(25, mark);
  e.scheduleAt(60, mark);  // past the horizon of the first runUntil

  EXPECT_EQ(e.runUntil(50), 6u);
  const std::vector<Mark> first{
      {'E', 4, 4},   {'P', 5, 4},   {'P', 6, 4},   {'P', 7, 4},
      {'P', 10, 4},  {'E', 10, 10}, {'E', 10, 10}, {'P', 11, 10},
      {'E', 12, 12}, {'P', 20, 12}, {'E', 20, 20}, {'E', 25, 25}};
  // Boundary 45 lies below the horizon, but no event at or past it runs
  // before the horizon, so neither it nor 55 fires yet.
  EXPECT_EQ(log, first);
  EXPECT_EQ(e.now(), 50u);

  EXPECT_EQ(e.run(), 1u);
  std::vector<Mark> all = first;
  all.push_back({'P', 45, 50});
  all.push_back({'P', 55, 50});
  all.push_back({'E', 60, 60});
  // 100 never fires: no event reaches it.
  EXPECT_EQ(log, all);
  EXPECT_EQ(probe.nextProbeAt(), 100u);
}

// A failing check reports the expression, file:line and the streamed
// message, although the message is formatted out of line.
TEST(Check, FailedCheckReportsExpressionLocationAndMessage) {
  const int when = 7;
  const int limit = 3;
  std::string what;
  const int line = __LINE__ + 2;
  try {
    COLIBRI_CHECK_MSG(when < limit, "when=" << when << " limit=" << limit);
  } catch (const InvariantViolation& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "invariant violated: when < limit at " +
                      std::string(__FILE__) + ':' + std::to_string(line) +
                      " — when=7 limit=3");
}

TEST(Check, FailedCheckWithoutMessageReportsExpressionAndLocation) {
  const int n = 0;
  std::string what;
  const int line = __LINE__ + 2;
  try {
    COLIBRI_CHECK(n > 0);
  } catch (const InvariantViolation& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "invariant violated: n > 0 at " + std::string(__FILE__) +
                      ':' + std::to_string(line));
}

TEST(Check, PassingCheckEvaluatesTheMessageNever) {
  int formatted = 0;
  auto count = [&formatted] { return ++formatted; };
  COLIBRI_CHECK_MSG(true, "never formatted " << count());
  EXPECT_EQ(formatted, 0);
}

}  // namespace
}  // namespace colibri::sim
