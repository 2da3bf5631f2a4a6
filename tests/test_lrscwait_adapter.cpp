// LRSCwait_q adapter protocol tests (Sections III-A/III-B of the paper):
// in-order service, withheld responses, capacity failures, Mwait.
#include <gtest/gtest.h>

#include "atomics/lrscwait.hpp"
#include "mock_bank.hpp"

namespace colibri::test {
namespace {

TEST(LrscWait, FirstLrwaitGrantedImmediately) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  bank.writeRaw(3, 11);
  a.handle(lrwait(3, 0));
  const auto r = bank.take();
  EXPECT_TRUE(r.resp.ok);
  EXPECT_EQ(r.resp.value, 11u);
  EXPECT_TRUE(a.holdsGrant(0, 3));
}

TEST(LrscWait, SecondLrwaitIsWithheldUntilScwait) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  a.handle(lrwait(3, 0));
  bank.responses.clear();
  a.handle(lrwait(3, 1));
  // Core 1 gets no response yet: the linearization point moved to LRwait.
  EXPECT_TRUE(bank.responses.empty());
  a.handle(scwait(3, 5, 0));
  ASSERT_EQ(bank.responses.size(), 2u);
  EXPECT_TRUE(bank.take().resp.ok);           // core 0's SCwait success
  const auto grant = bank.take();             // core 1's delayed LRwait
  EXPECT_EQ(grant.core, 1u);
  EXPECT_EQ(grant.resp.value, 5u);  // sees core 0's freshly written value
}

TEST(LrscWait, ServesWaitersInArrivalOrder) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  a.handle(lrwait(3, 0));
  a.handle(lrwait(3, 1));
  a.handle(lrwait(3, 2));
  bank.responses.clear();
  a.handle(scwait(3, 1, 0));
  EXPECT_EQ(bank.responses[1].core, 1u);  // after core 0's sc response
  bank.responses.clear();
  a.handle(scwait(3, 2, 1));
  EXPECT_EQ(bank.responses[1].core, 2u);
}

TEST(LrscWait, FullQueueFailsImmediately) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 2);
  a.handle(lrwait(3, 0));
  a.handle(lrwait(3, 1));
  bank.responses.clear();
  a.handle(lrwait(3, 2));  // capacity 2 exceeded
  const auto r = bank.take();
  EXPECT_EQ(r.core, 2u);
  EXPECT_FALSE(r.resp.ok);
  EXPECT_EQ(a.stats().lrFails, 1u);
}

TEST(LrscWait, QueuesToDifferentAddressesAreIndependent) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  a.handle(lrwait(3, 0));
  a.handle(lrwait(4, 1));
  // Both are the oldest for their address: both granted.
  EXPECT_EQ(bank.responses.size(), 2u);
  EXPECT_TRUE(a.holdsGrant(0, 3));
  EXPECT_TRUE(a.holdsGrant(1, 4));
}

TEST(LrscWait, StoreInvalidatesGrantScwaitFailsButQueueAdvances) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  bank.writeRaw(3, 1);
  a.handle(lrwait(3, 0));
  a.handle(lrwait(3, 1));
  bank.responses.clear();
  a.handle(store(3, 99, 5));  // interferes with core 0's reservation
  a.handle(scwait(3, 2, 0));
  const auto fail = bank.take();
  EXPECT_EQ(fail.core, 0u);
  EXPECT_FALSE(fail.resp.ok);
  EXPECT_EQ(bank.read(3), 99u);  // failed SCwait did not write
  const auto grant = bank.take();  // queue advanced despite the failure
  EXPECT_EQ(grant.core, 1u);
  EXPECT_EQ(grant.resp.value, 99u);
}

TEST(LrscWait, ScwaitWithoutGrantTripsInvariant) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  EXPECT_THROW(a.handle(scwait(3, 1, 0)), sim::InvariantViolation);
}

TEST(LrscWait, MwaitImmediateWhenValueAlreadyDiffers) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  bank.writeRaw(3, 7);
  a.handle(mwait(3, /*expected=*/5, 0));
  const auto r = bank.take();
  EXPECT_TRUE(r.resp.ok);
  EXPECT_EQ(r.resp.value, 7u);
  EXPECT_EQ(a.occupancy(), 0u);  // nothing stays enqueued
}

TEST(LrscWait, FullQueueStillAnswersAnAlreadyWrittenMwait) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 1);
  a.handle(lrwait(3, 0));  // fills the only entry
  bank.responses.clear();
  bank.writeRaw(4, 7);
  a.handle(mwait(4, /*expected=*/5, 1));  // changed: needs no entry
  auto r = bank.take();
  EXPECT_EQ(r.core, 1u);
  EXPECT_TRUE(r.resp.ok);
  EXPECT_EQ(r.resp.value, 7u);
  a.handle(mwait(4, /*expected=*/7, 2));  // unchanged: must queue, refused
  r = bank.take();
  EXPECT_EQ(r.core, 2u);
  EXPECT_FALSE(r.resp.ok);
  EXPECT_EQ(a.stats().mwaitWakes, 1u);
  EXPECT_EQ(a.stats().lrFails, 1u);
  EXPECT_EQ(a.occupancy(), 1u);
}

TEST(LrscWait, MwaitSleepsUntilWrite) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  bank.writeRaw(3, 5);
  a.handle(mwait(3, 5, 0));
  EXPECT_TRUE(bank.responses.empty());
  a.handle(store(4, 1, 1));  // unrelated address: still asleep
  EXPECT_TRUE(bank.responses.empty());
  a.handle(store(3, 6, 1));
  const auto r = bank.take();
  EXPECT_EQ(r.core, 0u);
  EXPECT_EQ(r.resp.value, 6u);  // woken with the new value
}

TEST(LrscWait, WriteWakesAllQueuedMwaits) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  a.handle(mwait(3, 0, 0));
  a.handle(mwait(3, 0, 1));
  a.handle(mwait(3, 0, 2));
  EXPECT_TRUE(bank.responses.empty());
  a.handle(store(3, 1, 7));
  EXPECT_EQ(bank.responses.size(), 3u);
  EXPECT_EQ(a.occupancy(), 0u);
}

TEST(LrscWait, ScwaitCommitWakesMwaitsOnSameAddress) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  a.handle(lrwait(3, 0));
  bank.responses.clear();
  a.handle(mwait(3, 0, 1));  // queued behind the granted LRwait
  EXPECT_TRUE(bank.responses.empty());
  a.handle(scwait(3, 42, 0));
  ASSERT_EQ(bank.responses.size(), 2u);
  EXPECT_EQ(bank.responses[1].core, 1u);
  EXPECT_EQ(bank.responses[1].resp.value, 42u);
}

TEST(LrscWait, CapacityOneBehavesLikeLrscWait1) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 1);
  a.handle(lrwait(3, 0));
  bank.responses.clear();
  a.handle(lrwait(3, 1));
  EXPECT_FALSE(bank.take().resp.ok);  // immediate fail, as in Sec. III-B
  a.handle(scwait(3, 1, 0));
  EXPECT_TRUE(bank.take().resp.ok);
  a.handle(lrwait(3, 1));  // now there is room
  EXPECT_TRUE(bank.take().resp.ok);
}

TEST(LrscWait, GrantAfterDequeueSkipsOtherAddressEntries) {
  MockBank bank;
  atomics::LrscWaitAdapter a(bank, 8);
  a.handle(lrwait(3, 0));
  a.handle(lrwait(4, 1));
  a.handle(lrwait(3, 2));
  bank.responses.clear();
  a.handle(scwait(3, 9, 0));
  ASSERT_EQ(bank.responses.size(), 2u);
  EXPECT_EQ(bank.responses[1].core, 2u);  // core 2, not core 1 (addr 4)
}

}  // namespace
}  // namespace colibri::test
