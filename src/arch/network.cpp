#include "arch/network.hpp"

#include "fault/fault.hpp"

namespace colibri::arch {

namespace {

/// Largest pair count for which debug builds afford the dense cross-check
/// matrices (2 x 32 MiB at the cap; the 4k-core geometry's 67M pairs are
/// exactly what the sparse layout exists to avoid allocating).
constexpr std::size_t kDenseCheckMaxPairs = std::size_t{4} << 20;

/// Remote requests per cycle a tile's ingress crossbar port accepts
/// (shared by the tile's banks — a hot bank's backlog starves its siblings
/// through this stage).
constexpr std::uint32_t kTileIngressBandwidth = 4;

}  // namespace

Network::Network(const SystemConfig& cfg)
    : topo_(cfg),
      numCores_(cfg.numCores),
      numBanks_(cfg.numBanks()),
      numGroups_(cfg.numGroups()),
      latency_{cfg.latLocalTile, cfg.latSameGroup, cfg.latRemoteGroup} {
  const std::uint32_t numTiles = cfg.numTiles();
  const std::uint32_t coresPerTile = cfg.coresPerTile;
  corePlace_.reserve(numCores_);
  for (TileId t = 0; t < numTiles; ++t) {
    const Placement p{t, t / cfg.tilesPerGroup};
    for (std::uint32_t i = 0; i < coresPerTile; ++i) {
      corePlace_.push_back(p);
    }
  }
  localRouters_.assign(numGroups_,
                       sim::ThroughputResource(cfg.localGroupBandwidth));
  groupEgress_.assign(numGroups_,
                      sim::ThroughputResource(cfg.localGroupBandwidth));
  groupLinks_.assign(static_cast<std::size_t>(numGroups_) * numGroups_,
                     sim::ThroughputResource(cfg.groupLinkBandwidth));
  tileIngress_.assign(numTiles,
                      sim::ThroughputResource(kTileIngressBandwidth));
#ifndef NDEBUG
  const std::size_t pairs = static_cast<std::size_t>(numCores_) * numBanks_;
  if (pairs <= kDenseCheckMaxPairs) {
    denseCoreToBank_.assign(pairs, 0);
    denseBankToCore_.assign(pairs, 0);
  }
#endif
}

BankLink Network::bankLink(BankId b) const {
  COLIBRI_CHECK_MSG(b < numBanks_, "bankLink for bank " << b << " of "
                                                        << numBanks_);
  return BankLink(b, {topo_.tileOfBank(b), topo_.groupOfBank(b)});
}

std::size_t Network::denseClampBytes(const SystemConfig& cfg) {
  return 2 * static_cast<std::size_t>(cfg.numCores) * cfg.numBanks() *
         sizeof(Cycle);
}

Cycle Network::acquireRequestPath(Placement src, Placement dst, Distance d,
                                  Cycle at, std::uint32_t holdSlots) {
  // A message with holdSlots > 1 occupies each shared stage for several
  // consecutive slots: the backpressure proxy for requests heading into a
  // backlogged bank (their flits sit in switch buffers, blocking others).
  switch (d) {
    case Distance::kLocalTile:
      return at;  // dedicated path, no shared stage
    case Distance::kSameGroup: {
      // The group's local (inter-tile) crossbar — the only shared stage on
      // the intra-group path, touched by no other group's traffic.
      const Cycle granted = localRouters_[src.group].acquire(at, holdSlots);
      stats_.totalQueueingDelay += granted - at;
      return granted;
    }
    case Distance::kRemoteGroup: {
      // Source-group egress port, directed inter-group link, destination
      // tile's remote ingress — all touched only by remote traffic.
      const Cycle egress = groupEgress_[src.group].acquire(at, holdSlots);
      const std::size_t link =
          static_cast<std::size_t>(src.group) * numGroups_ + dst.group;
      const Cycle linkCleared = groupLinks_[link].acquire(egress, holdSlots);
      const Cycle granted =
          tileIngress_[dst.tile].acquire(linkCleared, holdSlots);
      stats_.totalQueueingDelay += granted - at;
      return granted;
    }
  }
  return at;
}

Cycle Network::routeRequest(CoreId c, BankLink& dstLink, Cycle at,
                            std::uint32_t holdSlots) {
  const BankId b = dstLink.bank_;
  COLIBRI_CHECK_MSG(c < numCores_,
                    "routeRequest with out-of-range endpoint: core "
                        << c << " bank " << b);
  const Placement src = corePlace_[c];
  const Placement dst = dstLink.place_;
  const Distance d = distance(src, dst);
  stats_.messagesByDistance[static_cast<std::size_t>(d)]++;
  stats_.totalMessages++;

  const Cycle cleared =
      acquireRequestPath(src, dst, d, at, holdSlots == 0 ? 1 : holdSlots);
  // FIFO clamp: no message of a class may be delivered into this bank
  // earlier than its predecessor of the same class. Per-pair FIFO follows
  // (a pair is a subsequence of its (bank, class) stream), and the clamp
  // provably never binds — every message of the stream traverses the same
  // stage chain, stage grants never decrease in acquire order, and the
  // class's base latency is constant — so it is enforced as a hard check
  // rather than silently rewriting the delivery cycle.
  Cycle arrive = cleared + baseLatency(d);
  Cycle& last = dstLink.lastRequestIn_[static_cast<std::size_t>(d)];
  if (fault_ != nullptr && fault_->netDelayActive()) {
    // Injected delivery delay: only ever adds cycles, and the FIFO
    // invariant becomes a binding clamp — an artificially delayed message
    // holds up the stream behind it.
    arrive += fault_->netDelay(c, b, /*response=*/false, at);
    if (arrive < last) {
      arrive = last;
    }
  } else {
    COLIBRI_CHECK_MSG(arrive >= last,
                      "request FIFO order violated into bank "
                          << b << ": arrive " << arrive << " < last " << last);
  }
  last = arrive;
#ifndef NDEBUG
  if (!denseCoreToBank_.empty()) {
    // Exhaustive cross-check against the retired dense per-pair clamp: the
    // sparse layout must deliver exactly what the dense one would have.
    Cycle& pairLast =
        denseCoreToBank_[static_cast<std::size_t>(c) * numBanks_ + b];
    const Cycle denseArrive = arrive < pairLast ? pairLast : arrive;
    COLIBRI_CHECK_MSG(denseArrive == arrive,
                      "sparse clamp diverged from dense per-pair clamp: core "
                          << c << " -> bank " << b << " arrive " << arrive
                          << " dense " << denseArrive);
    pairLast = denseArrive;
  }
#endif
  return arrive;
}

Cycle Network::routeResponse(BankLink& srcLink, CoreId c, Cycle at) {
  const BankId b = srcLink.bank_;
  COLIBRI_CHECK_MSG(c < numCores_,
                    "routeResponse with out-of-range endpoint: bank "
                        << b << " core " << c);
  const Distance d = distance(srcLink.place_, corePlace_[c]);
  stats_.messagesByDistance[static_cast<std::size_t>(d)]++;
  stats_.totalMessages++;

  // Responses are pure latency, so per-(bank, class) arrivals are monotone
  // in send order and the clamp never binds (same argument as requests,
  // with an empty stage chain).
  Cycle arrive = at + baseLatency(d);
  Cycle& last = srcLink.lastResponseOut_[static_cast<std::size_t>(d)];
  if (fault_ != nullptr && fault_->netDelayActive()) {
    arrive += fault_->netDelay(c, b, /*response=*/true, at);
    if (arrive < last) {
      arrive = last;
    }
  } else {
    COLIBRI_CHECK_MSG(arrive >= last,
                      "response FIFO order violated from bank "
                          << b << ": arrive " << arrive << " < last " << last);
  }
  last = arrive;
#ifndef NDEBUG
  if (!denseBankToCore_.empty()) {
    Cycle& pairLast =
        denseBankToCore_[static_cast<std::size_t>(b) * numCores_ + c];
    const Cycle denseArrive = arrive < pairLast ? pairLast : arrive;
    COLIBRI_CHECK_MSG(denseArrive == arrive,
                      "sparse clamp diverged from dense per-pair clamp: bank "
                          << b << " -> core " << c << " arrive " << arrive
                          << " dense " << denseArrive);
    pairLast = denseArrive;
  }
#endif
  return arrive;
}

void Network::resetStats() {
  stats_.reset();
  for (auto& r : localRouters_) {
    r.resetStats();
  }
  for (auto& r : groupEgress_) {
    r.resetStats();
  }
  for (auto& r : groupLinks_) {
    r.resetStats();
  }
  for (auto& r : tileIngress_) {
    r.resetStats();
  }
}

std::uint64_t Network::linkQueueingDelay() const {
  std::uint64_t total = 0;
  for (const auto& r : localRouters_) {
    total += r.totalQueueingDelay();
  }
  for (const auto& r : groupEgress_) {
    total += r.totalQueueingDelay();
  }
  for (const auto& r : groupLinks_) {
    total += r.totalQueueingDelay();
  }
  for (const auto& r : tileIngress_) {
    total += r.totalQueueingDelay();
  }
  return total;
}

}  // namespace colibri::arch
