// Concurrent FIFO queue benchmark (paper Section V-A "Queue", Fig. 6).
//
// The paper benchmarks a concurrent queue implemented with LRSC, with
// LRSCwait, and as a lock-based queue. We implement a bounded MPMC ticket
// queue (Vyukov-style): two shared counters (head/tail tickets) claimed
// with a generic fetch-add RMW, and per-slot sequence words for the
// producer/consumer hand-off. This preserves the paper's contention
// pattern — two hot words hammered by every core plus a distributed
// hand-off — while being safe against node-reuse hazards in simulation.
// (Substitution documented in docs/ARCHITECTURE.md §4.)
//
// Variants (the Fig. 6 curves):
//   kLrsc     — ticket RMWs with LR/SC, slot waits by polling
//   kLrscWait — ticket RMWs with LRwait/SCwait, slot waits with Mwait
//               ("Colibri" curve on a Colibri system)
//   kLock     — a spin lock (amoswap test-and-set, 128-cycle backoff)
//               protecting plain head/tail/slot updates ("Atomic Add lock")
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

enum class QueueVariant : std::uint8_t { kLrsc, kLrscWait, kLock };

[[nodiscard]] const char* toString(QueueVariant v);

struct QueueParams {
  static constexpr const char* kName = "msqueue";  ///< the reported name
  QueueVariant variant = QueueVariant::kLrscWait;
  std::uint32_t capacity = 0;  ///< 0 = 2 * #cores
  /// Elements pre-filled so balanced enqueue/dequeue pairs never block on
  /// an empty queue at the start.
  std::uint32_t prefill = 0;  ///< 0 = capacity / 2
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128);
  MeasureWindow window{};
  std::uint32_t iterDelay = 4;  ///< per-iteration local work
  std::vector<sim::CoreId> cores;  ///< participants; empty = all
};

struct QueueResult {
  /// Queue accesses (each enqueue and each dequeue counts as one).
  RateResult rate;
  std::uint64_t totalAccesses = 0;
  bool fifoVerified = false;  ///< per-producer element order preserved
};

QueueResult runQueue(arch::System& sys, const QueueParams& p);

}  // namespace colibri::workloads
