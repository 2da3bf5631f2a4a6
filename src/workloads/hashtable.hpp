// Lock-free open-addressing hash table (insert + lookup steady state).
//
// A linear-probing table of SPM words (0 = empty slot) shared by every
// participating core. Inserts claim an empty slot with a reservation CAS
// (0 -> key); lookups probe from the hash until they hit the key or an
// empty slot. Keys are unique per worker, so a successful CAS publishes
// exactly one key and the table never needs deletion or resizing.
//
// Each worker front-loads its insert budget (a bounded share of the table,
// keeping the load factor — and therefore probe lengths — stable across
// window sizes) and then switches to lookups of its own published keys.
// This makes the workload CAS-heavy early and read-probe-heavy at steady
// state: the same claim-a-word contention pattern as the paper's queue
// benches, but spread across many addresses instead of two hot words.
//
// The run self-checks from the host side after the drain: the number of
// occupied slots must equal the number of successful inserts, and every
// key a worker reported inserted must be reachable by probing from its
// hash. The AMO-only adapter cannot run this workload (CAS needs
// reservations).
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

struct HashTableParams {
  static constexpr const char* kName = "hashtable";  ///< the reported name
  std::uint32_t slots = 0;        ///< table size in words; 0 = 16 * #cores
  /// Successful inserts each worker performs before switching to lookups;
  /// 0 = an equal share of half the table (load factor capped at 1/2).
  std::uint32_t keysPerCore = 0;
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(32);
  MeasureWindow window{};
  std::uint32_t iterDelay = 4;  ///< per-iteration local work
  std::vector<sim::CoreId> cores;  ///< participants; empty = all
};

struct HashTableResult {
  /// Completed operations (inserts + lookups) per cycle over the window.
  RateResult rate;
  std::uint64_t inserts = 0;      ///< successful inserts (all outside-window
                                  ///< work included)
  std::uint64_t lookups = 0;      ///< completed lookups
  std::uint64_t probeSteps = 0;   ///< total slots examined across all ops
  bool verified = false;  ///< occupancy == inserts and every key reachable
};

/// Run the table on a fresh system. Requires a reservation-capable adapter.
HashTableResult runHashTable(arch::System& sys, const HashTableParams& p);

}  // namespace colibri::workloads
