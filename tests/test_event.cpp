// InlineEvent + calendar event-queue tests: the inline budget, destruction
// accounting, pooled-node reuse, the overflow heap under the one dispatch
// loop (runBatchIfAtMost), and a golden-order determinism check of the
// calendar queue against a reference binary-heap engine (the seed
// implementation's semantics). A closure over the budget is a compile
// error, checked by the inline_event_rejects_oversized CTest.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/eventqueue.hpp"
#include "sim/random.hpp"

namespace colibri::sim {
namespace {

// --- InlineEvent storage and lifetime -----------------------------------

struct Counters {
  int constructed = 0;
  int destroyed = 0;
  int moved = 0;
  int invoked = 0;
};

struct Probe {
  Counters* c;
  explicit Probe(Counters* counters) : c(counters) { ++c->constructed; }
  Probe(Probe&& o) noexcept : c(o.c) {
    ++c->constructed;
    ++c->moved;
  }
  Probe(const Probe& o) : c(o.c) { ++c->constructed; }
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() { ++c->destroyed; }
  void operator()() const { ++c->invoked; }
};
static_assert(InlineEvent::fitsInline<Probe>);
// An event is built in place inside its queue node and runs there.
static_assert(!std::is_move_constructible_v<InlineEvent>);
static_assert(!std::is_move_assignable_v<InlineEvent>);

TEST(InlineEvent, EmptyByDefault) {
  InlineEvent ev;
  EXPECT_FALSE(static_cast<bool>(ev));
  EXPECT_THROW(ev.run(), InvariantViolation);
}

TEST(InlineEvent, RunsOnceThenIsEmpty) {
  int hits = 0;
  InlineEvent ev([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(ev));
  ev.run();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(static_cast<bool>(ev));  // an event runs once
}

TEST(InlineEvent, RunDestroysTheCallableOnceAlsoWhenItThrows) {
  Counters c;
  InlineEvent ev{Probe(&c)};
  ev.run();
  EXPECT_EQ(c.invoked, 1);
  EXPECT_EQ(c.constructed, c.destroyed);

  Counters thrown;
  InlineEvent thrower([p = Probe(&thrown)] {
    p();
    throw std::runtime_error("event failed");
  });
  EXPECT_THROW(thrower.run(), std::runtime_error);
  EXPECT_FALSE(static_cast<bool>(thrower));
  EXPECT_EQ(thrown.invoked, 1);
  EXPECT_EQ(thrown.constructed, thrown.destroyed);
}

TEST(InlineEvent, FitsInlineReflectsTheBudget) {
  struct Small {
    void* a;
    void* b;
    void operator()() const {}
  };
  struct Oversized {
    std::array<char, InlineEvent::kInlineSize + 1> bytes;
    void operator()() const {}
  };
  static_assert(InlineEvent::fitsInline<Small>);
  static_assert(!InlineEvent::fitsInline<Oversized>);
  // std::function itself fits inline: wrapping one (System::at) adds no
  // InlineEvent-level allocation on top of the function's own storage.
  static_assert(InlineEvent::fitsInline<std::function<void()>>);
}

TEST(InlineEvent, EmplaceDestroysThePreviousCallable) {
  Counters first;
  Counters second;
  {
    InlineEvent ev{Probe(&first)};
    ev.emplace(Probe(&second));
    EXPECT_EQ(first.invoked, 0);
    EXPECT_EQ(first.constructed, first.destroyed);  // old callable gone
    ev.run();
  }
  EXPECT_EQ(second.invoked, 1);
  EXPECT_EQ(second.constructed, second.destroyed);
}

TEST(InlineEvent, ResetDestroysWithoutInvoking) {
  Counters c;
  InlineEvent ev{Probe(&c)};
  ev.reset();
  EXPECT_FALSE(static_cast<bool>(ev));
  EXPECT_EQ(c.invoked, 0);
  EXPECT_EQ(c.constructed, c.destroyed);
}

// --- Engine/queue lifetime and allocation behavior ----------------------

TEST(EngineEvents, RunDestroysEachEventExactlyOnce) {
  Counters c;
  {
    Engine e;
    for (int i = 0; i < 100; ++i) {
      e.scheduleAt(static_cast<Cycle>(i % 7), Probe(&c));
    }
    e.run();
    EXPECT_EQ(c.invoked, 100);
  }
  EXPECT_EQ(c.constructed, c.destroyed);
}

struct Thrower {
  Counters* c;
  explicit Thrower(Counters* counters) : c(counters) { ++c->constructed; }
  Thrower(Thrower&& o) noexcept : c(o.c) {
    ++c->constructed;
    ++c->moved;
  }
  Thrower(const Thrower&) = delete;
  Thrower& operator=(const Thrower&) = delete;
  Thrower& operator=(Thrower&&) = delete;
  ~Thrower() { ++c->destroyed; }
  void operator()() const {
    ++c->invoked;
    throw std::runtime_error("event failed");
  }
};
static_assert(InlineEvent::fitsInline<Thrower>);

TEST(EngineEvents, ThrowingEventIsDestroyedOnceAndDispatchContinues) {
  Counters thrown;
  Counters rest;
  Engine e;
  e.scheduleAt(3, Probe(&rest));
  e.scheduleAt(5, Thrower(&thrown));
  e.scheduleAt(5, Probe(&rest));  // same cycle, behind the thrower
  e.scheduleAt(9, Probe(&rest));
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(thrown.invoked, 1);
  EXPECT_EQ(thrown.constructed, thrown.destroyed);  // destroyed exactly once
  EXPECT_EQ(rest.invoked, 1);
  EXPECT_EQ(e.now(), 5u);
  EXPECT_EQ(e.pendingEvents(), 2u);

  // The thrower's node went back to the pool: its one chunk holds the two
  // pending events plus one new event per remaining node, with no second
  // chunk. Then the engine keeps dispatching.
  constexpr std::size_t kChunk = EventQueue::kNodesPerChunk;
  ASSERT_EQ(e.allocatedEventNodes(), kChunk);
  int filled = 0;
  for (std::size_t i = 2; i < kChunk; ++i) {
    e.scheduleAt(7, [&filled] { ++filled; });
  }
  EXPECT_EQ(e.allocatedEventNodes(), kChunk);
  EXPECT_EQ(e.run(), kChunk);
  EXPECT_EQ(rest.invoked, 3);
  EXPECT_EQ(filled, static_cast<int>(kChunk) - 2);
  EXPECT_EQ(e.allocatedEventNodes(), kChunk);
  EXPECT_EQ(rest.constructed, rest.destroyed);
  EXPECT_EQ(thrown.constructed, thrown.destroyed);
}

TEST(EngineEvents, ClearDestroysPendingEventsWithoutRunningThem) {
  Counters c;
  Engine e;
  for (int i = 0; i < 50; ++i) {
    e.scheduleAt(static_cast<Cycle>(i), Probe(&c));
  }
  e.clear();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(c.invoked, 0);
  EXPECT_EQ(c.constructed, c.destroyed);
}

/// The dispatch record runBatchIfAtMost's `before` hook sees, in order.
struct Recorder {
  std::vector<DispatchRecord> seen;
  void operator()(Cycle when, std::uint64_t seq) { seen.push_back({when, seq}); }
};

TEST(EventQueue, SteadyStateSchedulingReusesPooledNodes) {
  EventQueue q;
  Recorder rec;
  std::uint64_t fired = 0;
  q.schedule(0, [&fired] { ++fired; });
  const std::size_t allocatedAfterFirst = q.allocatedNodes();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(q.runBatchIfAtMost(kCycleNever, rec), 1u);
    q.schedule(rec.seen.back().when + 1, [&fired] { ++fired; });
  }
  EXPECT_EQ(q.allocatedNodes(), allocatedAfterFirst);  // free-list reuse
  EXPECT_EQ(fired, 10000u);
  EXPECT_EQ(rec.seen.back().when, 9999u);
  EXPECT_EQ(rec.seen.back().seq, 9999u);
}

TEST(EventQueue, FarFutureEventsParkInTheOverflowHeap) {
  EventQueue q;
  Recorder rec;
  std::vector<int> order;
  q.schedule(2000, [&order] { order.push_back(1); });  // beyond the window
  q.schedule(1500, [&order] { order.push_back(0); });  // beyond the window
  q.schedule(10, [&order] { order.push_back(-1); });   // bucket
  EXPECT_EQ(q.overflowSize(), 2u);

  EXPECT_EQ(q.runBatchIfAtMost(kCycleNever, rec), 1u);  // bucket event at 10
  EXPECT_EQ(q.runBatchIfAtMost(kCycleNever, rec), 1u);  // overflow at 1500
  EXPECT_EQ(q.overflowSize(), 1u);
  // The window is now [1500, 1500+N): 2000 lies inside it, and a new
  // event at that cycle must still run after the older overflow entry
  // (seq tie-break). The overflow entry runs alone, then the bucket.
  q.schedule(2000, [&order] { order.push_back(2); });
  EXPECT_EQ(q.runBatchIfAtMost(kCycleNever, rec), 1u);
  EXPECT_EQ(q.runBatchIfAtMost(kCycleNever, rec), 1u);
  EXPECT_EQ(q.runBatchIfAtMost(kCycleNever, rec), 0u);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
  EXPECT_EQ(rec.seen, (std::vector<DispatchRecord>{
                          {10, 2}, {1500, 1}, {2000, 0}, {2000, 3}}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, OverflowTopAboveTheHorizonRunsNothing) {
  EventQueue q;
  Recorder rec;
  int fired = 0;
  q.schedule(3000, [&fired] { ++fired; });  // overflow, alone in the queue
  q.schedule(3001, [&fired] { ++fired; });
  ASSERT_EQ(q.overflowSize(), 2u);
  EXPECT_EQ(q.runBatchIfAtMost(2999, rec), 0u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.overflowSize(), 2u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(rec.seen.empty());
  EXPECT_EQ(q.runBatchIfAtMost(3000, rec), 1u);
  EXPECT_EQ(q.runBatchIfAtMost(3000, rec), 0u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(fired, 1);
}

// --- Golden-order determinism vs a reference binary heap ----------------

// The seed engine's exact semantics: std::priority_queue over (when, seq)
// with stable FIFO tie-break. The calendar queue must reproduce its
// execution order event for event.
class ReferenceEngine {
 public:
  [[nodiscard]] Cycle now() const { return now_; }

  void scheduleAt(Cycle when, std::function<void()> ev) {
    ASSERT_GE(when, now_);
    heap_.push(Item{when, nextSeq_++, std::move(ev)});
  }

  std::size_t runUntil(Cycle horizon) {
    std::size_t ran = 0;
    while (!heap_.empty() && heap_.top().when <= horizon) {
      Item item = std::move(const_cast<Item&>(heap_.top()));
      heap_.pop();
      now_ = item.when;
      item.ev();
      ++ran;
    }
    if (horizon != kCycleNever && now_ < horizon) {
      now_ = horizon;
    }
    return ran;
  }

  std::size_t run() { return runUntil(kCycleNever); }

  void clear() {
    while (!heap_.empty()) {
      heap_.pop();
    }
  }

 private:
  struct Item {
    Cycle when;
    std::uint64_t seq;
    std::function<void()> ev;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  Cycle now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

// Randomized self-expanding workload. Children are derived purely from the
// parent's id, so the two engines diverge immediately if their execution
// orders ever differ.
//
// Some events also spawn a child at the fixed cycle kMeet. A child spawned
// more than a bucket window before kMeet parks in the overflow heap; one
// spawned later lands in kMeet's bucket, so the two kinds tie on kMeet.
template <typename EngineT>
struct Script {
  static constexpr Cycle kMeet = 2600;

  EngineT& e;
  std::vector<std::pair<Cycle, int>> order;
  int nextId = 0;
  int farMeets = 0;   ///< kMeet children spawned >= a window ahead
  int nearMeets = 0;  ///< kMeet children spawned within a window

  void spawn(Cycle when, int depth) {
    const int id = nextId++;
    e.scheduleAt(when, [this, id, depth] {
      order.emplace_back(e.now(), id);
      if (depth >= 3) {
        return;
      }
      const auto h = static_cast<std::uint64_t>(id) * 2654435761u;
      if (h % 3 != 0) {
        spawn(e.now() + h % 50, depth + 1);  // near future (bucket window)
      }
      if (h % 7 == 0) {
        spawn(e.now() + 3000 + h % 4000, depth + 1);  // far (overflow heap)
      }
      if (h % 5 == 0) {
        spawn(e.now(), depth + 1);  // same cycle: pure seq tie-break
      }
      if (h % 4 == 1 && e.now() < kMeet) {
        ++(kMeet - e.now() >= EventQueue::kBucketCount ? farMeets : nearMeets);
        spawn(kMeet, depth + 1);  // overflow/bucket tie on one cycle
      }
    });
  }
};

TEST(EventQueue, GoldenOrderMatchesReferenceBinaryHeap) {
  // One deterministic schedule shared by both engines.
  std::vector<Cycle> initial;
  Xoshiro256 rng(0x60D13);
  for (int i = 0; i < 300; ++i) {
    initial.push_back(rng.below(2500));
  }

  Engine real;
  ReferenceEngine ref;
  Script<Engine> realScript{real, {}, 0};
  Script<ReferenceEngine> refScript{ref, {}, 0};
  for (const Cycle when : initial) {
    realScript.spawn(when, 0);
    refScript.spawn(when, 0);
  }

  // Mixed horizons exercise partial drains between schedule bursts.
  EXPECT_EQ(real.runUntil(400), ref.runUntil(400));
  EXPECT_EQ(real.runUntil(1337), ref.runUntil(1337));
  EXPECT_EQ(real.runUntil(2000), ref.runUntil(2000));
  realScript.spawn(real.now() + 11, 0);
  refScript.spawn(ref.now() + 11, 0);
  EXPECT_EQ(real.run(), ref.run());

  ASSERT_GT(realScript.order.size(), 300u);
  EXPECT_EQ(realScript.order, refScript.order);
  // Both kinds of kMeet entry were made, so the tie was exercised.
  EXPECT_GT(realScript.farMeets, 0);
  EXPECT_GT(realScript.nearMeets, 0);
}

TEST(EventQueue, GoldenOrderAcrossClear) {
  Engine real;
  ReferenceEngine ref;
  Script<Engine> realScript{real, {}, 0};
  Script<ReferenceEngine> refScript{ref, {}, 0};
  for (int i = 0; i < 100; ++i) {
    const Cycle when = (static_cast<Cycle>(i) * 97) % 1700;
    realScript.spawn(when, 0);
    refScript.spawn(when, 0);
  }
  EXPECT_EQ(real.runUntil(800), ref.runUntil(800));
  real.clear();
  ref.clear();
  EXPECT_TRUE(real.empty());

  // The queue must come back clean after the drop: same orders again.
  realScript.spawn(real.now() + 5, 0);
  refScript.spawn(ref.now() + 5, 0);
  EXPECT_EQ(real.run(), ref.run());
  EXPECT_EQ(realScript.order, refScript.order);
}

}  // namespace
}  // namespace colibri::sim
