// System configuration: geometry, latencies, bandwidths, adapter choice.
//
// Defaults model the paper's evaluation platform, MemPool [5]:
// 256 Snitch-like cores in 64 tiles of 4 cores, 4 groups of 16 tiles,
// 1024 SPM banks (16 per tile, word-interleaved), 1 MiB of L1 overall,
// single-cycle local bank access and a hierarchical interconnect.
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "sim/check.hpp"
#include "sim/types.hpp"

namespace colibri::obs {
class Recorder;
}

namespace colibri::arch {

/// Which atomic adapter sits in front of every bank.
enum class AdapterKind : std::uint8_t {
  kAmoOnly,     ///< AMO unit only (LR/SC and waits unsupported).
  kLrscSingle,  ///< MemPool-style: one reservation slot per bank [5].
  kLrscTable,   ///< ATUN-style: one reservation per core per bank [11].
  kLrscWait,    ///< LRSCwait_q: in-order reservation queue of capacity q.
  kColibri,     ///< Colibri: distributed queue (head/tail + Qnodes).
};

[[nodiscard]] std::string toString(AdapterKind k);

struct SystemConfig {
  // --- Geometry (MemPool defaults) -------------------------------------
  std::uint32_t numCores = 256;
  std::uint32_t coresPerTile = 4;
  std::uint32_t tilesPerGroup = 16;
  std::uint32_t banksPerTile = 16;
  std::uint32_t wordsPerBank = 256;  ///< 1 MiB / 4 B / 1024 banks.

  // --- Interconnect one-way latencies (cycles) --------------------------
  // Chosen to match MemPool's reported round trips: local bank ~2-3 cy,
  // same-group remote tile ~5-7 cy, remote group ~9-11 cy.
  std::uint32_t latLocalTile = 1;
  std::uint32_t latSameGroup = 3;
  std::uint32_t latRemoteGroup = 5;

  // --- Bandwidth limits --------------------------------------------------
  std::uint32_t bankPortsPerCycle = 1;  ///< requests a bank accepts per cycle
  /// Requests per cycle on each directed group-to-group link (aggregate of
  /// the per-tile remote ports in MemPool).
  std::uint32_t groupLinkBandwidth = 16;
  /// Requests per cycle through a group's local (intra-group, inter-tile)
  /// interconnect.
  std::uint32_t localGroupBandwidth = 32;
  /// Remote requests per cycle a tile's ingress crossbar port accepts
  /// (shared by the tile's 16 banks — a hot bank's backlog starves its
  /// siblings through this stage).
  std::uint32_t tileIngressBandwidth = 4;
  /// Backpressure proxy: a request towards a bank whose port is backlogged
  /// holds its router/link/ingress slots for up to this many extra cycles
  /// (finite switch buffering causes head-of-line blocking in the real
  /// fabric — the mechanism behind Fig. 5's worker slowdown). 0 disables it.
  std::uint32_t linkHoldMax = 8;

  // --- Core timing ---------------------------------------------------------
  /// Minimum cycles between consecutive issues from one core (models the
  /// single-issue pipeline; loop/branch overhead is added by workloads).
  std::uint32_t issueInterval = 1;

  // --- Adapter ------------------------------------------------------------
  AdapterKind adapter = AdapterKind::kColibri;
  /// LRSCwait_q: reservation-queue capacity per bank. Set to numCores for
  /// LRSCwait_ideal.
  std::uint32_t lrscWaitQueueCapacity = 8;
  /// Colibri: number of head/tail queue slots per memory controller
  /// ("addresses" in Table I).
  std::uint32_t colibriQueuesPerController = 4;

  // --- Misc ----------------------------------------------------------------
  std::uint64_t seed = 0xC011B21;

  // --- Fault injection ------------------------------------------------------
  /// Deterministic fault-injection plan (disabled by default: every
  /// probability zero). When enabled the System builds a FaultPlan whose
  /// decisions are pure hashes of (fault seed, site, entities, cycle) —
  /// bit-identical across reruns and sweep-thread counts. A zero
  /// `fault.seed` derives one from `seed`, so sweep reps explore distinct
  /// fault schedules unless the seed is pinned explicitly.
  fault::FaultConfig fault;

  /// Watchdog: if no core retires a productive operation (see
  /// Core::lastProductive_) for this many cycles while tasks are still
  /// pending, the run stops with a structured blame report. 0 disables.
  /// The default is far beyond any healthy workload's longest quiet gap
  /// but small enough to bound hang diagnosis time.
  sim::Cycle watchdogCycles = 250'000;

  // --- Observability --------------------------------------------------------
  /// Optional recorder the System attaches to during construction (metric
  /// registry + span tracer). Null (the default) keeps every hook compiled
  /// to a single untaken branch. Not part of the simulated configuration:
  /// never serialized, never hashed, and attaching one must not change any
  /// simulated outcome.
  obs::Recorder* recorder = nullptr;

  /// Exclusive bound on numWords() (and so on every word address).
  static constexpr std::uint64_t kWordLimit = std::uint64_t{1} << 32;

  // --- Derived -------------------------------------------------------------
  [[nodiscard]] std::uint32_t numTiles() const {
    return numCores / coresPerTile;
  }
  [[nodiscard]] std::uint32_t numGroups() const {
    return numTiles() / tilesPerGroup;
  }
  [[nodiscard]] std::uint32_t numBanks() const {
    return numTiles() * banksPerTile;
  }
  [[nodiscard]] std::uint64_t numWords() const {
    return static_cast<std::uint64_t>(numBanks()) * wordsPerBank;
  }

  void validate() const {
    COLIBRI_CHECK(numCores >= 1 && coresPerTile >= 1);
    COLIBRI_CHECK(numCores % coresPerTile == 0);
    COLIBRI_CHECK(tilesPerGroup >= 1 && numTiles() % tilesPerGroup == 0);
    COLIBRI_CHECK(banksPerTile >= 1 && wordsPerBank >= 1);
    // Word addresses fit 32 bits: AddressMap::bankOf is exact below 2^32.
    COLIBRI_CHECK(std::uint64_t{numTiles()} * banksPerTile < kWordLimit &&
                  numWords() < kWordLimit);
    COLIBRI_CHECK(issueInterval >= 1);
    COLIBRI_CHECK(bankPortsPerCycle >= 1);
    COLIBRI_CHECK(groupLinkBandwidth >= 1 && localGroupBandwidth >= 1);
    COLIBRI_CHECK(tileIngressBandwidth >= 1);
    COLIBRI_CHECK(lrscWaitQueueCapacity >= 1);
    COLIBRI_CHECK(colibriQueuesPerController >= 1);
    fault.validate();
  }

  /// A small 16-core configuration for fast unit tests (same structure:
  /// 4 tiles of 4 cores, 2 groups of 2 tiles, 16 banks).
  static SystemConfig smallTest() {
    SystemConfig c;
    c.numCores = 16;
    c.coresPerTile = 4;
    c.tilesPerGroup = 2;
    c.banksPerTile = 4;
    c.wordsPerBank = 64;
    return c;
  }

  /// The paper's full 256-core MemPool configuration.
  static SystemConfig memPool() { return SystemConfig{}; }
};

}  // namespace colibri::arch
