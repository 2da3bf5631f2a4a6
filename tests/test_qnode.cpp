// Qnode state-machine tests, including the SuccessorUpdate-after-SCwait
// bounce race of Section IV-A.1. The handlers that may dispatch return the
// WakeUp to send; the tests check it where a core would inject it.
#include <gtest/gtest.h>

#include "atomics/qnode.hpp"
#include "sim/check.hpp"

namespace colibri::atomics {
namespace {

class QnodeTest : public ::testing::Test {
 protected:
  Qnode q;
};

TEST_F(QnodeTest, StartsIdle) {
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
  EXPECT_FALSE(q.hasSuccessor());
}

TEST_F(QnodeTest, ScwaitWithKnownSuccessorDispatchesImmediately) {
  q.onWaitIssued(5, false);
  EXPECT_FALSE(q.onSuccessorUpdate(3, false));  // no bounce while queued
  const WakeUp w = q.onScWaitIssued();
  ASSERT_TRUE(w);
  EXPECT_EQ(w.successor, 3u);
  EXPECT_FALSE(w.successorIsMwait);
  EXPECT_EQ(w.addr, 5u);
  EXPECT_FALSE(q.hasSuccessor());
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
  // The late SCwait response (successor pending) is a no-op.
  q.onScWaitResponse(/*lastInQueue=*/false);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, ScwaitWithoutSuccessorOwesWakeup) {
  q.onWaitIssued(5, false);
  EXPECT_FALSE(q.onScWaitIssued());
  EXPECT_EQ(q.state(), Qnode::State::kOwesWakeup);
}

TEST_F(QnodeTest, LateSuccessorUpdateBouncesAsWakeUp) {
  q.onWaitIssued(5, false);
  EXPECT_FALSE(q.onScWaitIssued());
  // Arrives after the SCwait passed: bounced straight back.
  const WakeUp w = q.onSuccessorUpdate(7, true);
  ASSERT_TRUE(w);
  EXPECT_EQ(w.successor, 7u);
  EXPECT_TRUE(w.successorIsMwait);
  EXPECT_EQ(w.addr, 5u);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, LastInQueueResponseResets) {
  q.onWaitIssued(5, false);
  EXPECT_FALSE(q.onScWaitIssued());
  q.onScWaitResponse(/*lastInQueue=*/true);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, PendingResponseKeepsOwingUntilUpdate) {
  q.onWaitIssued(5, false);
  EXPECT_FALSE(q.onScWaitIssued());
  q.onScWaitResponse(/*lastInQueue=*/false);
  EXPECT_EQ(q.state(), Qnode::State::kOwesWakeup);
  const WakeUp w = q.onSuccessorUpdate(2, false);
  ASSERT_TRUE(w);
  EXPECT_EQ(w.successor, 2u);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, FailedLrwaitAdmissionResets) {
  q.onWaitIssued(5, false);
  q.onLrWaitResponse(/*admitted=*/false);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, GrantedLrwaitStaysQueued) {
  q.onWaitIssued(5, false);
  q.onLrWaitResponse(/*admitted=*/true);
  EXPECT_EQ(q.state(), Qnode::State::kQueued);
}

TEST_F(QnodeTest, MwaitLastResponseResetsSilently) {
  q.onWaitIssued(5, true);
  EXPECT_FALSE(q.onMwaitResponse(/*admitted=*/true, /*lastInQueue=*/true));
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, MwaitResponseWithSuccessorCascades) {
  q.onWaitIssued(5, true);
  EXPECT_FALSE(q.onSuccessorUpdate(4, true));
  const WakeUp w = q.onMwaitResponse(true, /*lastInQueue=*/false);
  ASSERT_TRUE(w);
  EXPECT_EQ(w.successor, 4u);
  EXPECT_TRUE(w.successorIsMwait);
  EXPECT_EQ(w.addr, 5u);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, MwaitResponseWithoutSuccessorOwesWakeup) {
  q.onWaitIssued(5, true);
  EXPECT_FALSE(q.onMwaitResponse(true, /*lastInQueue=*/false));
  EXPECT_EQ(q.state(), Qnode::State::kOwesWakeup);
  const WakeUp w = q.onSuccessorUpdate(4, false);
  ASSERT_TRUE(w);
  EXPECT_EQ(w.successor, 4u);
  EXPECT_FALSE(w.successorIsMwait);
}

TEST_F(QnodeTest, MwaitAdmissionFailureResets) {
  q.onWaitIssued(5, true);
  EXPECT_FALSE(q.onMwaitResponse(/*admitted=*/false, false));
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, DoubleWaitTripsInvariant) {
  q.onWaitIssued(5, false);
  EXPECT_THROW(q.onWaitIssued(6, false), sim::InvariantViolation);
}

TEST_F(QnodeTest, SuccessorUpdateToIdleTripsInvariant) {
  EXPECT_THROW((void)q.onSuccessorUpdate(1, false), sim::InvariantViolation);
}

TEST_F(QnodeTest, ScwaitWithoutWaitTripsInvariant) {
  EXPECT_THROW((void)q.onScWaitIssued(), sim::InvariantViolation);
}

TEST_F(QnodeTest, ReusableAcrossEpisodes) {
  for (int i = 0; i < 3; ++i) {
    q.onWaitIssued(5, false);
    q.onLrWaitResponse(true);
    EXPECT_FALSE(q.onScWaitIssued());
    q.onScWaitResponse(true);
    EXPECT_EQ(q.state(), Qnode::State::kIdle);
  }
}

}  // namespace
}  // namespace colibri::atomics
