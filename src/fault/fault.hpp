// Deterministic fault injection: manufactured adversarial timing.
//
// A FaultPlan turns a seed plus per-site probabilities into injection
// decisions at four sites threaded through the existing layers:
//
//   net_delay — extra delivery cycles on a network hop (arch/network)
//   sc_fail   — a would-succeed SC/SCwait commit spuriously fails
//               (atomics adapters; the sync retry loops absorb it)
//   evict     — a held reservation is dropped (lrsc_single slot,
//               lrsc_table entry, lrscwait served-head reservation)
//   stall     — transient extra bank service latency (arch/bank)
//
// Determinism contract: every decision is a *stateless* splitmix64 hash of
// (fault seed, site salt, entity ids, simulated cycle) — no counters, no
// shared RNG stream — so an injection fires at exactly the same simulated
// point regardless of reruns or SweepRunner --threads. The injected
// magnitudes only ever *add* latency.
//
// Canned profiles (net_jitter, sc_storm, evict_churn, chaos) are
// registered like wgen presets and selected with `--fault <profile>`;
// individual `--fault-*` flags overlay single sites. Injected faults are
// counted per site and surfaced as deterministic-class `fault.*` metrics
// and trace instants.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace colibri::obs {
class Tracer;
}

namespace colibri::fault {

/// Per-site probabilities and magnitudes. All-zero (the default) disables
/// injection entirely: no FaultPlan is constructed and every site stays a
/// single null-pointer test.
struct FaultConfig {
  /// Decision seed; 0 derives one from the system seed (so repetitions
  /// explore distinct fault schedules unless pinned with --fault-seed).
  std::uint64_t seed = 0;

  double netDelayP = 0.0;         ///< per network hop (request or response)
  std::uint32_t netDelayMax = 0;  ///< extra delivery cycles in [1, max]
  double scFailP = 0.0;           ///< per would-succeed SC/SCwait commit
  double evictP = 0.0;            ///< per handled request at a bank
  double stallP = 0.0;            ///< per bank service grant
  std::uint32_t stallMax = 0;     ///< extra service cycles in [1, max]

  [[nodiscard]] bool enabled() const {
    return netDelayP > 0.0 || scFailP > 0.0 || evictP > 0.0 || stallP > 0.0;
  }

  /// Throws sim::InvariantViolation on out-of-range probabilities or a
  /// zero magnitude with a nonzero probability.
  void validate() const;
};

/// Injection sites, in reporting order.
enum class Site : std::uint8_t { kNetDelay = 0, kScFail, kEvict, kStall };
inline constexpr std::size_t kSiteCount = 4;

[[nodiscard]] const char* toString(Site s);

/// Per-site injected-fault counts over a window (reset with the other
/// window counters). Zero everywhere when injection is off.
struct FaultCounters {
  std::array<std::uint64_t, kSiteCount> injected{};

  [[nodiscard]] std::uint64_t at(Site s) const {
    return injected[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto v : injected) {
      n += v;
    }
    return n;
  }
};

/// Canned profile: a named FaultConfig, registered like a wgen preset.
struct Profile {
  std::string name;
  std::string description;
  FaultConfig config;
};

/// All canned profiles, in presentation order.
[[nodiscard]] const std::vector<Profile>& profiles();

/// Look up a profile by name; nullptr if unknown ("off" is not a profile).
[[nodiscard]] const Profile* findProfile(const std::string& name);

/// The runtime decision engine. One per System; the network, the banks and
/// the adapters hold a raw pointer that is null when injection is off.
class FaultPlan {
 public:
  /// `config.seed` must already be resolved (nonzero) by the caller.
  explicit FaultPlan(const FaultConfig& config);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t seed() const { return cfg_.seed; }

  /// Trace-instant sink (null = off). Set once at System construction,
  /// before any event runs.
  void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // --- Decision points (called from simulation hot paths) -----------------
  /// True when the network must clamp instead of hard-check its
  /// per-(bank, class) FIFO arrival invariant.
  [[nodiscard]] bool netDelayActive() const { return netThreshold_ != 0; }

  /// Extra delivery cycles for the hop core<->bank at cycle `at`
  /// (0 = no fault). `response` distinguishes the two directions.
  [[nodiscard]] sim::Cycle netDelay(sim::CoreId core, sim::BankId bank,
                                    bool response, sim::Cycle at);

  /// Should this would-succeed SC/SCwait commit spuriously fail?
  [[nodiscard]] bool scFail(sim::BankId bank, sim::CoreId core, sim::Addr a,
                            sim::Cycle at);

  /// Should the bank drop a held reservation while handling this request?
  [[nodiscard]] bool evict(sim::BankId bank, sim::CoreId core, sim::Cycle at);

  /// Victim index in [0, bound) for an eviction that must pick one of
  /// several held reservations (lrsc_table). Pure; not counted.
  [[nodiscard]] std::uint32_t evictVictim(sim::BankId bank, sim::Cycle at,
                                          std::uint32_t bound) const;

  /// Extra service cycles for the request granted at `at` (0 = no fault).
  [[nodiscard]] sim::Cycle stall(sim::BankId bank, sim::CoreId core,
                                 sim::Cycle at);

  // --- Reads ---------------------------------------------------------------
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  void resetCounters() { counters_ = {}; }

 private:
  [[nodiscard]] bool decide(std::uint64_t salt, std::uint64_t a,
                            std::uint64_t b, sim::Cycle at,
                            std::uint64_t threshold) const;
  [[nodiscard]] std::uint64_t mix(std::uint64_t salt, std::uint64_t a,
                                  std::uint64_t b, sim::Cycle at) const;
  void count(Site s);

  FaultConfig cfg_;
  std::uint64_t netThreshold_ = 0;
  std::uint64_t scThreshold_ = 0;
  std::uint64_t evictThreshold_ = 0;
  std::uint64_t stallThreshold_ = 0;
  obs::Tracer* tracer_ = nullptr;
  FaultCounters counters_;
};

}  // namespace colibri::fault
