// TicketQueue unit tests: single-core round trips, prefill, blocking
// semantics (full queue blocks producers, empty queue blocks consumers),
// the capacity floor, and multi-core conservation.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "arch/system.hpp"
#include "workloads/ticket_queue.hpp"

namespace colibri::workloads {
namespace {

using arch::AdapterKind;
using arch::Core;
using arch::System;
using arch::SystemConfig;

SystemConfig colibriCfg() {
  auto c = SystemConfig::smallTest();
  c.adapter = AdapterKind::kColibri;
  return c;
}

sim::Task roundTrip(System& sys, Core& core, TicketQueue& q,
                    std::vector<sim::Word>& got, int iters) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff bo(sync::BackoffPolicy::fixed(16), rng);
  for (int i = 0; i < iters; ++i) {
    co_await q.enqueue(core, static_cast<sim::Word>(100 + i),
                       sync::RmwFlavor::kLrscWait, true, bo);
    got.push_back(co_await q.dequeue(core, sync::RmwFlavor::kLrscWait, true,
                                     bo));
  }
}

TEST(TicketQueue, SingleCoreFifoRoundTrip) {
  System sys(colibriCfg());
  auto q = TicketQueue::create(sys, 8);
  std::vector<sim::Word> got;
  sys.spawn(0, roundTrip(sys, sys.core(0), q, got, 5));
  sys.run();
  sys.rethrowFailures();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], 100u + i);
  }
}

TEST(TicketQueue, PrefilledValuesComeOutFirstInOrder) {
  System sys(colibriCfg());
  auto q = TicketQueue::create(sys, 8, {11, 22, 33});
  std::vector<sim::Word> got;
  auto drain = [&got](System&, Core& core, TicketQueue& tq) -> sim::Task {
    sim::Xoshiro256 rng(1);
    sync::Backoff bo(sync::BackoffPolicy::fixed(16), rng);
    for (int i = 0; i < 3; ++i) {
      got.push_back(co_await tq.dequeue(core, sync::RmwFlavor::kLrscWait,
                                        true, bo));
    }
  };
  sys.spawn(0, drain(sys, sys.core(0), q));
  sys.run();
  sys.rethrowFailures();
  EXPECT_EQ(got, (std::vector<sim::Word>{11, 22, 33}));
}

TEST(TicketQueue, DequeueBlocksUntilAnEnqueueArrives) {
  System sys(colibriCfg());
  auto q = TicketQueue::create(sys, 4);
  sim::Cycle dequeuedAt = 0;
  auto consumer = [&](System& s, Core& core, TicketQueue& tq) -> sim::Task {
    sim::Xoshiro256 rng(1);
    sync::Backoff bo(sync::BackoffPolicy::fixed(16), rng);
    const auto v =
        co_await tq.dequeue(core, sync::RmwFlavor::kLrscWait, true, bo);
    EXPECT_EQ(v, 77u);
    dequeuedAt = s.now();
  };
  auto producer = [](System&, Core& core, TicketQueue& tq) -> sim::Task {
    co_await core.delay(120);
    sim::Xoshiro256 rng(2);
    sync::Backoff bo(sync::BackoffPolicy::fixed(16), rng);
    co_await tq.enqueue(core, 77, sync::RmwFlavor::kLrscWait, true, bo);
  };
  sys.spawn(0, consumer(sys, sys.core(0), q));
  sys.spawn(1, producer(sys, sys.core(1), q));
  sys.run();
  sys.rethrowFailures();
  EXPECT_GE(dequeuedAt, 120u);  // waited for the producer
}

TEST(TicketQueue, EnqueueBlocksWhenFull) {
  System sys(colibriCfg());
  auto q = TicketQueue::create(sys, 2, {1, 2});  // full from the start
  sim::Cycle enqueuedAt = 0;
  auto producer = [&](System& s, Core& core, TicketQueue& tq) -> sim::Task {
    sim::Xoshiro256 rng(1);
    sync::Backoff bo(sync::BackoffPolicy::fixed(16), rng);
    co_await tq.enqueue(core, 3, sync::RmwFlavor::kLrscWait, true, bo);
    enqueuedAt = s.now();
  };
  auto consumer = [](System&, Core& core, TicketQueue& tq) -> sim::Task {
    co_await core.delay(150);
    sim::Xoshiro256 rng(2);
    sync::Backoff bo(sync::BackoffPolicy::fixed(16), rng);
    (void)co_await tq.dequeue(core, sync::RmwFlavor::kLrscWait, true, bo);
  };
  sys.spawn(0, producer(sys, sys.core(0), q));
  sys.spawn(1, consumer(sys, sys.core(1), q));
  sys.run();
  sys.rethrowFailures();
  EXPECT_GE(enqueuedAt, 150u);  // had to wait for the slot to free
}

// One slot cannot tell "full for ticket t" (seq t+1) from "free for ticket
// t+1" (seq h + capacity = t+1), so create() refuses it.
TEST(TicketQueue, RejectsSingleSlotCapacity) {
  System sys(colibriCfg());
  EXPECT_THROW((void)TicketQueue::create(sys, 1), sim::InvariantViolation);
  EXPECT_THROW((void)TicketQueue::create(sys, 0), sim::InvariantViolation);
}

class TicketQueueFlavors
    : public ::testing::TestWithParam<sync::RmwFlavor> {};

// Conservation property under concurrency: N cores each push K tagged
// values and pop K values; the multiset of popped values equals the
// multiset pushed.
TEST_P(TicketQueueFlavors, ConservesValuesUnderContention) {
  auto cfg = SystemConfig::smallTest();
  cfg.adapter = GetParam() == sync::RmwFlavor::kLrsc
                    ? AdapterKind::kLrscTable
                    : AdapterKind::kColibri;
  System sys(cfg);
  auto q = TicketQueue::create(sys, 32);
  std::vector<sim::Word> popped;
  constexpr int kIters = 20;
  auto worker = [&popped](System& s, Core& core, TicketQueue& tq,
                          sync::RmwFlavor flavor) -> sim::Task {
    auto rng = sim::Xoshiro256::forStream(s.config().seed, core.id());
    sync::Backoff bo(sync::BackoffPolicy::fixed(32), rng);
    const bool mwait = flavor == sync::RmwFlavor::kLrscWait;
    for (int i = 0; i < kIters; ++i) {
      co_await tq.enqueue(core, (core.id() << 8) | static_cast<sim::Word>(i),
                          flavor, mwait, bo);
      popped.push_back(co_await tq.dequeue(core, flavor, mwait, bo));
    }
  };
  for (sim::CoreId c = 0; c < 8; ++c) {
    sys.spawn(c, worker(sys, sys.core(c), q, GetParam()));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(sys.allTasksDone());
  ASSERT_EQ(popped.size(), 8u * kIters);
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(std::adjacent_find(popped.begin(), popped.end()), popped.end())
      << "duplicate value popped";
  std::vector<sim::Word> expected;
  for (sim::CoreId c = 0; c < 8; ++c) {
    for (int i = 0; i < kIters; ++i) {
      expected.push_back((c << 8) | static_cast<sim::Word>(i));
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(popped, expected);
}

INSTANTIATE_TEST_SUITE_P(Flavors, TicketQueueFlavors,
                         ::testing::Values(sync::RmwFlavor::kLrsc,
                                           sync::RmwFlavor::kLrscWait),
                         [](const auto& info) {
                           return std::string(
                               info.param == sync::RmwFlavor::kLrsc
                                   ? "lrsc"
                                   : "lrscwait");
                         });

}  // namespace
}  // namespace colibri::workloads
