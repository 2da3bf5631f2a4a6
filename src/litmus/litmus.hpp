// Litmus suite: classic concurrent algorithms run as coroutine kernels on
// the simulated memory system, with their correctness invariants checked
// after the run.
//
// The histogram-style self-checks (Σ increments, locks back to 0) verify
// that nothing was *lost*; the litmus suite verifies *semantics*: mutual
// exclusion (Dekker, Peterson, Lamport bakery, a test-and-set baseline),
// lost-update freedom under mixed LL/SC-vs-CAS increment races, and
// progress (every contender finishes its programmed entries before a
// watchdog horizon). A deliberately broken naive lock (load-check-then-
// store, no atomic RMW) is included so every run also proves the harness
// *detects* violations — a suite that cannot fail is not a suite.
//
// Memory-model note: the modeled cores post plain stores, and stores to
// different banks complete out of order relative to subsequent loads
// (see spinlock.hpp). The flag-based algorithms are therefore run with
// *acked* protocol writes by default (`fenced = true`, publishing via
// amoSwap — the simulator's analogue of the fence a real MemPool kernel
// needs between the flag store and the flag read). `fenced = false` posts
// them instead, which lets Dekker's store→load race actually happen — the
// suite uses it to prove the detector sees real reorderings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "sync/backoff.hpp"

namespace colibri::litmus {

enum class Algorithm : std::uint8_t {
  kDekker,        ///< Dekker's algorithm (2 contenders, flags + turn)
  kPeterson,      ///< Peterson's algorithm (2 contenders, flags + victim)
  kBakery,        ///< Lamport's bakery (N contenders, choosing + tickets)
  kTasLock,       ///< test-and-set spin lock baseline (adapter-matched TAS)
  kNaiveLock,     ///< BROKEN load-check-then-store lock — must be caught
  kIncrementRace, ///< mixed LL/SC-vs-CAS increments on one shared counter
};

[[nodiscard]] const char* toString(Algorithm a);

/// Registry entry: how a litmus algorithm may be instantiated and what its
/// expected behavior is.
struct AlgorithmInfo {
  Algorithm algo;
  std::string name;
  std::string description;
  std::uint32_t minContenders = 2;
  std::uint32_t maxContenders = 2;
  std::uint32_t defaultContenders = 2;
  /// True when the algorithm is expected to uphold exclusion/lost-update
  /// freedom (with fenced protocol writes); false for the broken naive
  /// lock, whose pass criterion is that the harness detects the violation.
  bool expectExclusion = true;
};

/// All litmus algorithms, in presentation order.
[[nodiscard]] const std::vector<AlgorithmInfo>& algorithms();

/// Look up by name ("dekker", "peterson", ...); nullptr if unknown.
[[nodiscard]] const AlgorithmInfo* findAlgorithm(const std::string& name);

/// The registry entry for an Algorithm value.
[[nodiscard]] const AlgorithmInfo& infoFor(Algorithm a);

struct LitmusParams {
  Algorithm algo = Algorithm::kDekker;
  /// Contending cores; clamped to the registry's [min, max] by validate().
  std::uint32_t contenders = 2;
  /// Critical-section entries (or successful increments) per contender.
  std::uint32_t iterations = 40;
  /// Acked (amoSwap) protocol writes; false posts them (see header note).
  bool fenced = true;
  std::uint32_t csCycles = 3;  ///< compute inside the critical section
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(32);
  /// Watchdog horizon: the stop flag flips here; contenders that had to
  /// abandon their loop fail the progress invariant.
  sim::Cycle watchdog = 2'000'000;
};

/// Everything one litmus run produced. A (config, params) pair reproduces
/// the result bit-for-bit.
struct LitmusResult {
  std::string algorithm;
  std::string adapter;
  std::uint32_t contenders = 0;
  std::uint64_t seed = 0;
  bool fenced = true;

  std::uint64_t entries = 0;          ///< completed CS entries / increments
  std::uint64_t expectedEntries = 0;  ///< contenders * iterations
  /// Overlap observations: the atomic occupancy probe saw another core
  /// inside the critical section at entry.
  std::uint64_t exclusionViolations = 0;
  /// Increments the shared counter lost (entries - final counter value).
  std::uint64_t lostUpdates = 0;
  std::vector<std::uint64_t> perCoreEntries;  ///< by contender index
  sim::Cycle finishedAt = 0;  ///< cycle the last contender completed

  /// Every contender completed all its entries before the watchdog.
  bool progressOk = false;

  [[nodiscard]] bool exclusionOk() const {
    return exclusionViolations == 0 && lostUpdates == 0;
  }
  /// All invariants held (the pass criterion for correct algorithms).
  [[nodiscard]] bool holds() const { return progressOk && exclusionOk(); }
  /// The harness observed a violation (the pass criterion for kNaiveLock).
  [[nodiscard]] bool violationDetected() const { return !exclusionOk(); }
};

}  // namespace colibri::litmus
