// Network model tests: distance latencies, FIFO-per-pair delivery, link
// contention, statistics, and the placement tables. Each test holds the
// BankLink of every bank it routes to, as the banks do in a System.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "arch/network.hpp"
#include "sim/engine.hpp"

namespace colibri::arch {
namespace {

SystemConfig cfg() { return SystemConfig::smallTest(); }

// Route a request departing core `c` now and schedule `onArrive` at its
// delivery cycle, the way System::injectRequest does.
template <typename F>
void send(sim::Engine& e, Network& n, CoreId c, BankLink& b, F&& onArrive) {
  e.scheduleAt(n.routeRequest(c, b, e.now()), std::forward<F>(onArrive));
}

TEST(Network, LocalTileLatency) {
  Network n(cfg());
  BankLink bank0 = n.bankLink(0);
  // core 0, bank 0: tile 0
  EXPECT_EQ(n.routeRequest(0, bank0, 0), cfg().latLocalTile);
}

TEST(Network, SameGroupLatency) {
  Network n(cfg());
  BankLink bank4 = n.bankLink(4);
  EXPECT_EQ(n.routeRequest(0, bank4, 0), cfg().latSameGroup);  // tile 0 -> 1
}

TEST(Network, RemoteGroupLatency) {
  Network n(cfg());
  BankLink bank12 = n.bankLink(12);
  // group 0 -> 1
  EXPECT_EQ(n.routeRequest(0, bank12, 0), cfg().latRemoteGroup);
}

TEST(Network, ResponsePathMirrorsLatency) {
  Network n(cfg());
  BankLink bank12 = n.bankLink(12);
  EXPECT_EQ(n.routeResponse(bank12, 0, 0), cfg().latRemoteGroup);
}

TEST(Network, BankLinkPastLastBankThrows) {
  Network n(cfg());
  EXPECT_EQ(n.bankLink(15).bank(), 15u);
  EXPECT_THROW((void)n.bankLink(cfg().numBanks()), sim::InvariantViolation);
}

TEST(Network, SamePairDeliveryIsFifo) {
  sim::Engine e;
  Network n(cfg());
  BankLink bank12 = n.bankLink(12);
  std::vector<int> order;
  // Saturate the link so queueing occurs, then check arrival order.
  for (int i = 0; i < 40; ++i) {
    send(e, n, 0, bank12, [&order, i] { order.push_back(i); });
  }
  e.run();
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Network, GroupLinkLimitsThroughput) {
  auto c = cfg();
  c.groupLinkBandwidth = 1;
  Network n(c);
  BankLink bank12 = n.bankLink(12);
  std::vector<sim::Cycle> arrivals;
  for (int i = 0; i < 8; ++i) {
    arrivals.push_back(n.routeRequest(0, bank12, 0));
  }
  // With bandwidth 1, one message clears the link per cycle.
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], 1u);
  }
  EXPECT_GT(n.stats().totalQueueingDelay, 0u);
}

TEST(Network, LocalTileBypassesSharedLinks) {
  auto c = cfg();
  c.groupLinkBandwidth = 1;
  c.localGroupBandwidth = 1;
  Network n(c);
  BankLink bank0 = n.bankLink(0);
  // All local-tile messages arrive together: no shared stage.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(n.routeRequest(0, bank0, 0), c.latLocalTile);
  }
}

TEST(Network, CountsMessagesByDistance) {
  Network n(cfg());
  BankLink bank0 = n.bankLink(0);
  BankLink bank4 = n.bankLink(4);
  BankLink bank12 = n.bankLink(12);
  (void)n.routeRequest(0, bank0, 0);
  (void)n.routeRequest(0, bank4, 0);
  (void)n.routeRequest(0, bank12, 0);
  (void)n.routeRequest(0, bank12, 0);
  (void)n.routeResponse(bank12, 0, 0);
  const auto& s = n.stats();
  EXPECT_EQ(s.messagesByDistance[0], 1u);
  EXPECT_EQ(s.messagesByDistance[1], 1u);
  EXPECT_EQ(s.messagesByDistance[2], 3u);
  EXPECT_EQ(s.totalMessages, 5u);
  n.resetStats();
  EXPECT_EQ(n.stats().totalMessages, 0u);
}

// Property: messages injected in the same cycle on different pairs never
// violate per-pair order even under heavy cross traffic.
TEST(Network, CrossTrafficPreservesPerPairOrder) {
  auto c = cfg();
  c.groupLinkBandwidth = 2;
  sim::Engine e;
  Network n(c);
  BankLink bank12 = n.bankLink(12);
  BankLink bank13 = n.bankLink(13);
  std::vector<int> pairA;
  std::vector<int> pairB;
  for (int i = 0; i < 20; ++i) {
    send(e, n, 0, bank12, [&pairA, i] { pairA.push_back(i); });
    send(e, n, 1, bank13, [&pairB, i] { pairB.push_back(i); });
  }
  e.run();
  ASSERT_EQ(pairA.size(), 20u);
  ASSERT_EQ(pairB.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pairA[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(pairB[static_cast<std::size_t>(i)], i);
  }
}

// The core placement table and the bank links' placements must classify
// every (core, bank) pair exactly as Topology does, also when no size is a
// power of two (10 tiles of 3 cores, 2 groups of 5 tiles, 70 banks). Departures are spaced far
// enough apart that no message queues behind another, so each delivery is
// the departure cycle plus the class's base latency, in both directions.
TEST(Network, PlacementTablesMatchTopologyOnOddGeometry) {
  SystemConfig c;
  c.numCores = 30;
  c.coresPerTile = 3;
  c.tilesPerGroup = 5;
  c.banksPerTile = 7;
  c.latLocalTile = 1;
  c.latSameGroup = 4;
  c.latRemoteGroup = 9;
  c.validate();
  ASSERT_EQ(c.numBanks(), 70u);
  ASSERT_EQ(c.numGroups(), 2u);
  const Topology topo(c);
  Network n(c);
  std::vector<BankLink> links;
  for (BankId bank = 0; bank < c.numBanks(); ++bank) {
    links.push_back(n.bankLink(bank));
  }
  constexpr sim::Cycle kSpacing = 64;  // far beyond any hold or latency
  sim::Cycle at = 0;
  std::array<std::uint64_t, 3> byClass{};
  for (CoreId core = 0; core < c.numCores; ++core) {
    for (BankId bank = 0; bank < c.numBanks(); ++bank) {
      const Distance d = topo.coreToBank(core, bank);
      ++byClass[static_cast<std::size_t>(d)];
      EXPECT_EQ(n.routeRequest(core, links[bank], at), at + n.baseLatency(d))
          << "core " << core << " -> bank " << bank;
      EXPECT_EQ(n.routeResponse(links[bank], core, at), at + n.baseLatency(d))
          << "bank " << bank << " -> core " << core;
      at += kSpacing;
    }
  }
  EXPECT_EQ(n.baseLatency(Distance::kLocalTile), 1u);
  EXPECT_EQ(n.baseLatency(Distance::kSameGroup), 4u);
  EXPECT_EQ(n.baseLatency(Distance::kRemoteGroup), 9u);
  // Every class is exercised: 30 cores x 7 banks in their own tile, x 28
  // in the other four tiles of their group, x 35 in the other group.
  EXPECT_EQ(byClass[0], 30u * 7);
  EXPECT_EQ(byClass[1], 30u * 28);
  EXPECT_EQ(byClass[2], 30u * 35);
  EXPECT_EQ(n.stats().totalMessages, 2u * 30 * 70);
  EXPECT_EQ(n.stats().totalQueueingDelay, 0u);
}

}  // namespace
}  // namespace colibri::arch
