// Qnode state-machine tests, including the SuccessorUpdate-after-SCwait
// bounce race of Section IV-A.1.
#include <gtest/gtest.h>

#include <vector>

#include "atomics/qnode.hpp"

namespace colibri::atomics {
namespace {

struct SentWakeUp {
  CoreId from;
  CoreId successor;
  bool isMwait;
  sim::Addr addr;
};

// Records the WakeUpRequests a Qnode dispatches instead of injecting them.
struct FakeSink final : WakeUpSink {
  void sendWakeUp(CoreId from, CoreId successor, bool successorIsMwait,
                  sim::Addr addr) override {
    sent.push_back({from, successor, successorIsMwait, addr});
  }
  std::vector<SentWakeUp> sent;
};

class QnodeTest : public ::testing::Test {
 protected:
  QnodeTest() : q(/*core=*/0, &sink) {}
  FakeSink sink;
  Qnode q;
  std::vector<SentWakeUp>& sent = sink.sent;
};

TEST_F(QnodeTest, StartsIdle) {
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
  EXPECT_FALSE(q.hasSuccessor());
}

TEST_F(QnodeTest, ScwaitWithKnownSuccessorDispatchesImmediately) {
  q.onWaitIssued(5, false);
  q.onSuccessorUpdate(3, false);
  q.onScWaitIssued();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].from, 0u);
  EXPECT_EQ(sent[0].successor, 3u);
  EXPECT_EQ(sent[0].addr, 5u);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
  // The late SCwait response (successor pending) is a no-op.
  q.onScWaitResponse(/*lastInQueue=*/false);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, ScwaitWithoutSuccessorOwesWakeup) {
  q.onWaitIssued(5, false);
  q.onScWaitIssued();
  EXPECT_EQ(q.state(), Qnode::State::kOwesWakeup);
  EXPECT_TRUE(sent.empty());
}

TEST_F(QnodeTest, LateSuccessorUpdateBouncesAsWakeUp) {
  q.onWaitIssued(5, false);
  q.onScWaitIssued();
  q.onSuccessorUpdate(7, true);  // arrives after the SCwait passed
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].successor, 7u);
  EXPECT_TRUE(sent[0].isMwait);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, LastInQueueResponseResets) {
  q.onWaitIssued(5, false);
  q.onScWaitIssued();
  q.onScWaitResponse(/*lastInQueue=*/true);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
  EXPECT_TRUE(sent.empty());
}

TEST_F(QnodeTest, PendingResponseKeepsOwingUntilUpdate) {
  q.onWaitIssued(5, false);
  q.onScWaitIssued();
  q.onScWaitResponse(/*lastInQueue=*/false);
  EXPECT_EQ(q.state(), Qnode::State::kOwesWakeup);
  q.onSuccessorUpdate(2, false);
  EXPECT_EQ(sent.size(), 1u);
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
  q.onMwaitResponse(/*admitted=*/true, /*lastInQueue=*/true);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
  EXPECT_TRUE(sent.empty());
}

TEST_F(QnodeTest, MwaitResponseWithSuccessorCascades) {
  q.onWaitIssued(5, true);
  q.onSuccessorUpdate(4, true);
  q.onMwaitResponse(true, /*lastInQueue=*/false);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].successor, 4u);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, MwaitResponseWithoutSuccessorOwesWakeup) {
  q.onWaitIssued(5, true);
  q.onMwaitResponse(true, /*lastInQueue=*/false);
  EXPECT_EQ(q.state(), Qnode::State::kOwesWakeup);
  q.onSuccessorUpdate(4, false);
  EXPECT_EQ(sent.size(), 1u);
}

TEST_F(QnodeTest, MwaitAdmissionFailureResets) {
  q.onWaitIssued(5, true);
  q.onMwaitResponse(/*admitted=*/false, false);
  EXPECT_EQ(q.state(), Qnode::State::kIdle);
}

TEST_F(QnodeTest, DoubleWaitTripsInvariant) {
  q.onWaitIssued(5, false);
  EXPECT_THROW(q.onWaitIssued(6, false), sim::InvariantViolation);
}

TEST_F(QnodeTest, SuccessorUpdateToIdleTripsInvariant) {
  EXPECT_THROW(q.onSuccessorUpdate(1, false), sim::InvariantViolation);
}

TEST_F(QnodeTest, ScwaitWithoutWaitTripsInvariant) {
  EXPECT_THROW(q.onScWaitIssued(), sim::InvariantViolation);
}

TEST(Qnode, DispatchWithoutSinkTripsInvariant) {
  Qnode q(/*core=*/2, /*sink=*/nullptr);
  q.onWaitIssued(5, false);
  q.onSuccessorUpdate(3, false);
  EXPECT_THROW(q.onScWaitIssued(), sim::InvariantViolation);
}

TEST_F(QnodeTest, ReusableAcrossEpisodes) {
  for (int i = 0; i < 3; ++i) {
    q.onWaitIssued(5, false);
    q.onLrWaitResponse(true);
    q.onScWaitIssued();
    q.onScWaitResponse(true);
    EXPECT_EQ(q.state(), Qnode::State::kIdle);
  }
  EXPECT_TRUE(sent.empty());
}

}  // namespace
}  // namespace colibri::atomics
