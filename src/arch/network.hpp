// Hierarchical interconnect model.
//
// Messages between cores and banks take a latency determined by the
// distance class (local tile / same group / remote group) plus queueing
// delay on shared resources. Each distance class owns a disjoint set of
// stages (mirroring MemPool's separate local and remote tile ports):
//   - local tile:   dedicated single-cycle path, no shared stage;
//   - same group:   the group's local router (intra-group, inter-tile
//                   crossbar);
//   - remote group: the source group's egress port, the directed
//                   group-to-group link, and the destination tile's remote
//                   ingress port (shared by all of that tile's banks).
// The disjointness is deliberate: intra-group stages are touched only by
// their own group's traffic and remote stages only by remote traffic, so
// local and remote requests never queue behind each other.
//
// Delivery is FIFO per (source endpoint, destination endpoint) pair. This
// is guaranteed structurally — fixed latency per class plus FIFO stages
// whose grants never decrease in acquire order — and enforced with a
// clamp, because Colibri's correctness argument relies on ordered memory
// transactions (Section IV-A): an SCwait and the WakeUpRequest dispatched
// right behind it must not be reordered. Because a pair's messages all
// traverse the same stage chain and add the same base latency, per-pair
// FIFO already follows from per-(endpoint, distance-class) monotonicity,
// so the clamp state is two 3-entry floors per bank (requests in,
// responses out). Each Bank owns its floors and its placement in a
// BankLink, so only banks the System has built carry link state, and the
// Network itself holds nothing per bank: it keeps the per-core placement
// table and the shared stages. The retired dense per-pair matrices would
// cost over a gigabyte at 4096 cores x 16384 banks. Debug builds on small
// geometries cross-check every message against the dense per-pair clamp.
//
// Only the request direction contends for stage bandwidth; responses use
// dedicated return paths (as in MemPool's full-duplex interconnect) with
// pure latency. Bank-port serialization is handled by the Bank itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "arch/topology.hpp"
#include "sim/resource.hpp"
#include "sim/types.hpp"

namespace colibri::fault {
class FaultPlan;
}

namespace colibri::arch {

using sim::Cycle;

/// Per-distance-class traffic counters (for the energy model).
struct NetworkStats {
  std::array<std::uint64_t, 3> messagesByDistance{};  // indexed by Distance
  std::uint64_t totalMessages = 0;
  std::uint64_t totalQueueingDelay = 0;

  void reset() {
    messagesByDistance = {};
    totalMessages = 0;
    totalQueueingDelay = 0;
  }
};

/// Where an endpoint sits: its tile and that tile's group.
struct Placement {
  TileId tile;
  GroupId group;
};

/// One bank's side of the network: its placement and the FIFO clamps of
/// the two streams it terminates, one floor per distance class. The Bank
/// owns it; Network::bankLink makes one and the route calls update it.
class BankLink {
 public:
  [[nodiscard]] BankId bank() const { return bank_; }

 private:
  friend class Network;
  BankLink(BankId b, Placement p) : bank_(b), place_(p) {}

  BankId bank_;
  Placement place_;
  std::array<Cycle, 3> lastRequestIn_{};    // by distance class
  std::array<Cycle, 3> lastResponseOut_{};  // by distance class
};

class Network {
 public:
  explicit Network(const SystemConfig& cfg);

  /// The link state of bank `b` (placement computed here, clamps zero);
  /// throws sim::InvariantViolation past the last bank.
  [[nodiscard]] BankLink bankLink(BankId b) const;

  /// Route a request departing core `c` at cycle `at` towards the bank
  /// owning `dst`: acquires the shared stages (link queueing), applies the
  /// per-pair FIFO clamp, and counts stats. Returns the delivery cycle —
  /// the caller schedules the arrival event itself. Calls per (c, bank)
  /// pair must be in send order.
  /// `holdSlots` >= 1 is the number of consecutive slots the message holds
  /// on each shared stage: >1 models backpressure from a backlogged
  /// destination (finite switch buffers, head-of-line blocking).
  Cycle routeRequest(CoreId c, BankLink& dst, Cycle at,
                     std::uint32_t holdSlots = 1);

  /// Route a response departing the bank owning `src` at cycle `at`
  /// towards core `c`: pure latency plus the per-pair FIFO clamp, no
  /// shared stages. Returns the delivery cycle.
  Cycle routeResponse(BankLink& src, CoreId c, Cycle at);

  /// One-way latency (without queueing) for a distance class.
  [[nodiscard]] Cycle baseLatency(Distance d) const {
    return latency_[static_cast<std::size_t>(d)];
  }

  /// Aggregated traffic counters.
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

  /// Attach the fault plan (null = injection off). With net-delay faults
  /// active the per-(bank, class) FIFO invariant is enforced as a true
  /// clamp instead of a hard check: injected delay can reorder raw
  /// arrivals, and the clamp restores FIFO delivery (a delayed message
  /// delays everything behind it on the same stream, like a blocked flit).
  void setFaultPlan(fault::FaultPlan* plan) { fault_ = plan; }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Bytes the retired dense per-pair clamp layout would need for `cfg`:
  /// two numCores * numBanks arrays of Cycle. Kept as a static formula so
  /// the 4k-core smoke test can assert the sparse layout's savings.
  [[nodiscard]] static std::size_t denseClampBytes(const SystemConfig& cfg);

 private:
  [[nodiscard]] static Distance distance(Placement src, Placement dst) {
    if (src.tile == dst.tile) {
      return Distance::kLocalTile;
    }
    return src.group == dst.group ? Distance::kSameGroup
                                  : Distance::kRemoteGroup;
  }

  /// Claim the request path's shared stages for a message departing at
  /// `at`; returns the cycle it clears the last contended stage. Queueing
  /// delay counts into the stats.
  Cycle acquireRequestPath(Placement src, Placement dst, Distance d, Cycle at,
                           std::uint32_t holdSlots);

  Topology topo_;
  std::uint32_t numCores_;
  std::uint32_t numBanks_;
  std::uint32_t numGroups_;
  // Placement of every core and the latency of every distance class,
  // precomputed so routing a message is table lookups: no Topology
  // division on the hot path (a bank's placement is in its link). A
  // tile's cores are contiguous, so the table is filled per tile: one
  // placement computed per tile, repeated for each of its cores.
  std::vector<Placement> corePlace_;
  std::array<Cycle, 3> latency_;
  // Shared stages, each owned by exactly one distance class (see header
  // comment): same-group traffic uses the group's local router; remote
  // traffic uses source egress -> directed link -> destination ingress.
  std::vector<sim::ThroughputResource> localRouters_;  // one per group
  std::vector<sim::ThroughputResource> groupEgress_;   // one per group
  std::vector<sim::ThroughputResource> groupLinks_;    // numGroups^2, directed
  std::vector<sim::ThroughputResource> tileIngress_;   // one per tile, remote
#ifndef NDEBUG
  // Debug cross-check: the dense per-pair clamps, maintained alongside the
  // sparse ones on small geometries so every message's delivery can be
  // verified against the retired layout (empty when the geometry is too
  // large to afford the dense matrix).
  std::vector<Cycle> denseCoreToBank_;  // [c * numBanks + b]
  std::vector<Cycle> denseBankToCore_;  // [b * numCores + c]
#endif
  NetworkStats stats_;
  fault::FaultPlan* fault_ = nullptr;  // null = injection off
};

}  // namespace colibri::arch
