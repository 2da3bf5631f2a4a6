// Producer/consumer pipeline (the paper's Mwait motivation: "a core may
// monitor a queue and be woken up when an element is pushed").
//
// Producers generate items at a configurable rate into the shared ticket
// queue; consumers process them (a fixed compute cost per item). With
// polling consumers, an idle pipeline still saturates banks and links;
// with Mwait consumers the idle side sleeps. The result reports the
// consumer sleep/poll fraction alongside throughput — the polling-
// reduction claim in a form Fig. 3/4 cannot show.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

struct ProdConsParams {
  static constexpr const char* kName = "prodcons";  ///< the reported name
  std::uint32_t producers = 8;
  std::uint32_t consumers = 8;
  /// Cycles a producer computes between items (item generation cost).
  std::uint32_t produceDelay = 64;
  /// Cycles a consumer computes per item.
  std::uint32_t consumeDelay = 16;
  bool useMwait = true;  ///< consumers sleep (Mwait) vs. poll
  std::uint32_t capacity = 64;
  MeasureWindow window{};
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128);
};

struct ProdConsResult {
  double itemsPerCycle = 0.0;
  std::uint64_t itemsConsumed = 0;
  std::uint64_t itemsInWindow = 0;  ///< consumed inside the window
  /// System-wide event counters over the measurement window (snapshot
  /// before the drain phase) — what the energy model charges.
  SystemCounters counters{};
  /// Fraction of consumer core-cycles spent asleep (Mwait) in the window.
  double consumerSleepFraction = 0.0;
  /// Memory requests issued by consumers per consumed item (polling cost).
  double consumerRequestsPerItem = 0.0;
  bool allItemsSeen = false;  ///< every produced item consumed exactly once
};

ProdConsResult runProdCons(arch::System& sys, const ProdConsParams& p);

}  // namespace colibri::workloads
