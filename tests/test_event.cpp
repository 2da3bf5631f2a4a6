// InlineEvent + calendar event-queue tests: inline vs heap storage, move
// semantics, destruction accounting, steady-state allocation freedom, and
// a golden-order determinism check of the calendar queue against a
// reference binary-heap engine (the seed implementation's semantics).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arch/system.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/eventqueue.hpp"
#include "sim/random.hpp"
#include "sync/atomic.hpp"

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

TEST(InlineEvent, EmptyByDefault) {
  InlineEvent ev;
  EXPECT_FALSE(static_cast<bool>(ev));
  EXPECT_THROW(ev.run(), InvariantViolation);
}

TEST(InlineEvent, SmallCallableStaysInline) {
  const auto before = InlineEvent::heapFallbackCount();
  int hits = 0;
  InlineEvent ev([&hits] { ++hits; });
  EXPECT_EQ(InlineEvent::heapFallbackCount(), before);
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

  std::array<std::uint64_t, 16> big{};  // heap fallback
  Counters heap;
  InlineEvent thrower([big, p = Probe(&heap)] {
    p();
    throw std::runtime_error("event failed");
  });
  EXPECT_THROW(thrower.run(), std::runtime_error);
  EXPECT_FALSE(static_cast<bool>(thrower));
  EXPECT_EQ(heap.invoked, 1);
  EXPECT_EQ(heap.constructed, heap.destroyed);
}

TEST(InlineEvent, OversizedCaptureFallsBackToHeapAndStillWorks) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineSize
  big[3] = 7;
  int out = 0;
  const auto before = InlineEvent::heapFallbackCount();
  InlineEvent ev([big, &out] { out = static_cast<int>(big[3]); });
  EXPECT_EQ(InlineEvent::heapFallbackCount(), before + 1);
  ev.run();
  EXPECT_EQ(out, 7);
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

TEST(InlineEvent, MoveTransfersOwnership) {
  Counters c;
  {
    InlineEvent a{Probe(&c)};
    InlineEvent b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    b.run();
  }
  EXPECT_EQ(c.invoked, 1);
  EXPECT_EQ(c.constructed, c.destroyed);  // nothing leaked, nothing double-freed
}

TEST(InlineEvent, MoveAssignmentDestroysThePreviousCallable) {
  Counters first;
  Counters second;
  {
    InlineEvent a{Probe(&first)};
    InlineEvent b{Probe(&second)};
    a = std::move(b);
    EXPECT_EQ(first.constructed, first.destroyed);  // old callable gone
    EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
    a.run();
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

TEST(InlineEvent, HeapCallableMovesWithoutReallocating) {
  std::array<std::uint64_t, 16> big{};
  int out = 0;
  InlineEvent a([big, &out] { ++out; });
  const auto before = InlineEvent::heapFallbackCount();
  InlineEvent b(std::move(a));
  EXPECT_EQ(InlineEvent::heapFallbackCount(), before);  // move never allocates
  b.run();
  EXPECT_EQ(out, 1);
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

TEST(EventQueue, SteadyStateSchedulingReusesPooledNodes) {
  EventQueue q;
  const auto heapBefore = InlineEvent::heapFallbackCount();
  std::uint64_t fired = 0;
  Cycle when = 0;
  InlineEvent ev;
  q.schedule(0, [&fired] { ++fired; });
  const std::size_t allocatedAfterFirst = q.allocatedNodes();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.popIfAtMost(kCycleNever, when, ev));
    ev.run();
    q.schedule(when + 1, [&fired] { ++fired; });
  }
  EXPECT_EQ(q.allocatedNodes(), allocatedAfterFirst);  // free-list reuse
  EXPECT_EQ(InlineEvent::heapFallbackCount(), heapBefore);
  EXPECT_EQ(fired, 10000u);
}

TEST(EventQueue, FarFutureEventsParkInTheOverflowHeap) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2000, [&order] { order.push_back(1); });  // beyond the window
  q.schedule(1500, [&order] { order.push_back(0); });  // beyond the window
  q.schedule(10, [&order] { order.push_back(-1); });   // bucket
  EXPECT_EQ(q.overflowSize(), 2u);

  Cycle when = 0;
  InlineEvent ev;
  ASSERT_TRUE(q.popIfAtMost(kCycleNever, when, ev));
  ev.run();  // the bucket event at 10
  ASSERT_TRUE(q.popIfAtMost(kCycleNever, when, ev));
  ev.run();  // overflow event at 1500; window is now [1500, 1500+N)
  EXPECT_EQ(when, 1500u);

  // 2000 now lies inside the bucket window: a new event at the same cycle
  // must still run after the older overflow entry (seq tie-break).
  q.schedule(2000, [&order] { order.push_back(2); });
  ASSERT_TRUE(q.popIfAtMost(kCycleNever, when, ev));
  ev.run();
  ASSERT_TRUE(q.popIfAtMost(kCycleNever, when, ev));
  ev.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
  EXPECT_TRUE(q.empty());
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

  std::size_t step(std::size_t n) {
    std::size_t ran = 0;
    while (ran < n && !heap_.empty()) {
      Item item = std::move(const_cast<Item&>(heap_.top()));
      heap_.pop();
      now_ = item.when;
      item.ev();
      ++ran;
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
  EXPECT_EQ(real.step(37), ref.step(37));
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

// --- Whole-simulation allocation freedom --------------------------------

sim::Task incrementLoop(arch::System& sys, arch::Core& core, Addr a,
                        int iters) {
  auto rng = Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff bo(sync::BackoffPolicy::fixed(32), rng);
  for (int i = 0; i < iters; ++i) {
    (void)co_await sync::fetchAdd(core, sync::RmwFlavor::kLrscWait, a, 1, bo);
  }
}

TEST(InlineEvent, SimulatedWorkloadSchedulesZeroHeapFallbacks) {
  auto cfg = arch::SystemConfig::smallTest();
  cfg.adapter = arch::AdapterKind::kColibri;
  arch::System sys(cfg);
  const auto a = sys.allocator().allocGlobal(1);

  const auto before = InlineEvent::heapFallbackCount();
  constexpr int kIters = 50;
  for (CoreId c = 0; c < cfg.numCores; ++c) {
    sys.spawn(c, incrementLoop(sys, sys.core(c), a, kIters));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_EQ(sys.peek(a), cfg.numCores * kIters);
  // Every closure the core/bank/network path schedules fits the inline
  // buffer: the whole run must not touch the event heap fallback.
  EXPECT_EQ(InlineEvent::heapFallbackCount(), before);
}

}  // namespace
}  // namespace colibri::sim
