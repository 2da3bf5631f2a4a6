// LR/SC baseline adapters: single-slot (MemPool) and per-core table (ATUN).
#include <gtest/gtest.h>

#include <sstream>

#include "atomics/lrsc_single.hpp"
#include "atomics/lrsc_table.hpp"
#include "mock_bank.hpp"

namespace colibri::test {
namespace {

TEST(LrscSingle, PlainPairSucceeds) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  bank.writeRaw(3, 41);
  a.handle(lr(3, 0));
  EXPECT_EQ(bank.take().resp.value, 41u);
  a.handle(sc(3, 42, 0));
  EXPECT_TRUE(bank.take().resp.ok);
  EXPECT_EQ(bank.read(3), 42u);
}

TEST(LrscSingle, BusySlotIsNotStolenByAnotherLr) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(lr(3, 1));  // slot busy: core 1 reads the value, no reservation
  EXPECT_EQ(a.slotOwner(), 0u);
  bank.responses.clear();
  a.handle(sc(3, 8, 1));
  EXPECT_FALSE(bank.take().resp.ok);  // core 1 never had the slot
  a.handle(sc(3, 7, 0));
  EXPECT_TRUE(bank.take().resp.ok);  // the owner succeeds
  EXPECT_EQ(bank.read(3), 7u);
}

TEST(LrscSingle, SlotFreesAfterOwnersScForNextLr) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(sc(3, 1, 0));
  bank.responses.clear();
  a.handle(lr(3, 1));  // slot free again
  EXPECT_EQ(a.slotOwner(), 1u);
  a.handle(sc(3, 2, 1));
  bank.responses.clear();
  EXPECT_EQ(bank.read(3), 2u);
}

TEST(LrscSingle, ReLrByOwnerMovesReservation) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(lr(4, 0));  // the owner re-reserves elsewhere
  bank.responses.clear();
  a.handle(sc(4, 7, 0));
  EXPECT_TRUE(bank.take().resp.ok);
  EXPECT_EQ(bank.read(4), 7u);
}

TEST(LrscSingle, StoreInvalidatesReservation) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(store(3, 9, 1));
  bank.responses.clear();
  a.handle(sc(3, 7, 0));
  EXPECT_FALSE(bank.take().resp.ok);
  EXPECT_EQ(bank.read(3), 9u);  // the store's value survived
}

TEST(LrscSingle, StoreToOtherAddressKeepsReservation) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(store(4, 9, 1));
  bank.responses.clear();
  a.handle(sc(3, 7, 0));
  EXPECT_TRUE(bank.take().resp.ok);
}

TEST(LrscSingle, ScWithoutReservationFails) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(sc(3, 7, 0));
  EXPECT_FALSE(bank.take().resp.ok);
  EXPECT_EQ(bank.read(3), 0u);
}

TEST(LrscSingle, ScConsumesReservation) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  bank.responses.clear();
  a.handle(sc(3, 7, 0));
  EXPECT_TRUE(bank.take().resp.ok);
  a.handle(sc(3, 8, 0));  // second SC: reservation gone
  EXPECT_FALSE(bank.take().resp.ok);
  EXPECT_EQ(bank.read(3), 7u);
}

TEST(LrscSingle, ScToDifferentAddressFails) {
  MockBank bank;
  atomics::LrscSingleAdapter a(bank);
  a.handle(lr(3, 0));
  bank.responses.clear();
  a.handle(sc(5, 7, 0));
  EXPECT_FALSE(bank.take().resp.ok);
}

TEST(LrscTable, ConcurrentReservationsCoexist) {
  MockBank bank;
  atomics::LrscTableAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(lr(3, 1));  // does NOT evict core 0 (per-core table)
  bank.responses.clear();
  a.handle(sc(3, 7, 0));
  EXPECT_TRUE(bank.take().resp.ok);  // core 0 wins the round
  a.handle(sc(3, 8, 1));
  EXPECT_FALSE(bank.take().resp.ok);  // core 1's reservation was killed
  EXPECT_EQ(bank.read(3), 7u);
}

TEST(LrscTable, ReservationsOnDifferentAddressesIndependent) {
  MockBank bank;
  atomics::LrscTableAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(lr(4, 1));
  bank.responses.clear();
  a.handle(sc(3, 7, 0));
  a.handle(sc(4, 8, 1));
  EXPECT_TRUE(bank.take().resp.ok);
  EXPECT_TRUE(bank.take().resp.ok);
}

TEST(LrscTable, StoreInvalidatesAllReservationsOnAddress) {
  MockBank bank;
  atomics::LrscTableAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(lr(3, 1));
  a.handle(store(3, 1, 2));
  bank.responses.clear();
  a.handle(sc(3, 7, 0));
  a.handle(sc(3, 8, 1));
  EXPECT_FALSE(bank.take().resp.ok);
  EXPECT_FALSE(bank.take().resp.ok);
}

TEST(LrscTable, ScFailureConsumesOwnReservation) {
  MockBank bank;
  atomics::LrscTableAdapter a(bank);
  a.handle(lr(4, 1));
  bank.responses.clear();
  a.handle(sc(3, 7, 1));  // wrong address
  EXPECT_FALSE(bank.take().resp.ok);
  a.handle(sc(4, 9, 1));  // the failed SC cleared the table entry
  EXPECT_FALSE(bank.take().resp.ok);
}

TEST(LrscTable, TracksSuccessAndFailureCounts) {
  MockBank bank;
  atomics::LrscTableAdapter a(bank);
  a.handle(lr(3, 0));
  a.handle(lr(3, 1));
  a.handle(sc(3, 7, 0));
  a.handle(sc(3, 8, 1));
  EXPECT_EQ(a.stats().lrGrants, 2u);
  EXPECT_EQ(a.stats().scSuccesses, 1u);
  EXPECT_EQ(a.stats().scFailures, 1u);
}

// Held reservations are listed in core order whatever order the LRs came
// in, a re-LR moves a core's reservation instead of adding one, and a
// write drops exactly the entries on its address.
TEST(LrscTable, DescribeStateListsHeldCoresInOrder) {
  MockBank bank;
  atomics::LrscTableAdapter a(bank);
  const auto state = [&a] {
    std::ostringstream os;
    a.describeState(os);
    return os.str();
  };
  EXPECT_EQ(state(), "0 of 8 reservation entries held");
  a.handle(lr(3, 5));
  a.handle(lr(4, 2));
  a.handle(lr(3, 7));
  a.handle(lr(4, 5));  // core 5 moves its reservation to address 4
  EXPECT_EQ(state(), "3 of 8 reservation entries held (cores: 2 5 7)");
  a.handle(store(4, 1, 0));
  EXPECT_EQ(state(), "1 of 8 reservation entries held (cores: 7)");
}

}  // namespace
}  // namespace colibri::test
