// RunSpec/RunResult: one simulation point as data.
//
// A RunSpec names everything a single simulation needs — the system
// configuration (adapter + geometry), the workload parameters, the
// measurement window, the seed, and how many repetitions to run — and
// exp::runOne executes it on a fresh System. This is the single dispatch
// point shared by the CLI driver, the nine figure benches, and the tests;
// per-workload run functions are not duplicated anywhere else.
//
// Determinism: a RunSpec plus a repetition index fully determines the
// result bit-for-bit. Repetition r derives its seed from the spec's base
// seed via the same splitmix64 stream scheme the cores use (rep 0 runs
// the base seed unchanged, so single-rep results match direct runs).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "arch/config.hpp"
#include "model/energy.hpp"
#include "sim/types.hpp"
#include "wgen/kernel.hpp"
#include "workloads/harness.hpp"
#include "workloads/hashtable.hpp"
#include "workloads/histogram.hpp"
#include "workloads/lockfair.hpp"
#include "workloads/matmul.hpp"
#include "workloads/msqueue.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/wsdeque.hpp"

namespace colibri::exp {

/// Which workload to run, with its knobs. The MeasureWindow embedded in
/// the alternatives is overwritten from RunSpec::window by runOne (matmul
/// and interference run to completion and ignore it).
using WorkloadParams =
    std::variant<workloads::HistogramParams, workloads::QueueParams,
                 workloads::ProdConsParams, workloads::MatmulParams,
                 workloads::InterferenceParams, wgen::WgenParams,
                 workloads::HashTableParams, workloads::WsDequeParams,
                 workloads::LockFairParams>;

/// The workload family a WorkloadParams selects: "histogram", "msqueue",
/// "prodcons", "matmul", "interference", "hashtable", "wsdeque" or
/// "lockfair"; WgenParams reports its kernel name. QueueParams always
/// reports "msqueue" — the registry's "ticket_queue" entry runs the same
/// queue with the kLock variant; set RunSpec::workload to keep that name.
[[nodiscard]] const char* workloadNameOf(const WorkloadParams& params);

/// True when the workload reports rates over RunSpec::window; false for
/// the run-to-completion ones (matmul, interference, wsdeque).
[[nodiscard]] bool isWindowed(const WorkloadParams& params);

struct RunSpec {
  /// Display label for reports (curve name, CLI scenario, ...).
  std::string label;
  /// Optional registry workload name; empty derives it from `params`
  /// via workloadNameOf. Set it when the registry name is more specific
  /// than the params family (e.g. "ticket_queue" vs plain QueueParams).
  std::string workload;
  /// Adapter + geometry. `config.seed` is overwritten from `seed`.
  arch::SystemConfig config;
  WorkloadParams params;
  /// Authoritative measurement window (copied into `params`).
  workloads::MeasureWindow window{};
  /// Base seed; repetition r runs repSeed(seed, r).
  std::uint64_t seed = 0xC011B21;
  /// Independent repetitions (distinct derived seeds). SweepRunner
  /// aggregates mean/stddev/min/max across them.
  std::uint32_t repetitions = 1;
};

/// One workload-specific result value, named by its JSON key. Counts stay
/// integers and ratios stay doubles, so each serializes in its own format.
struct Extra {
  const char* key;
  std::variant<std::uint64_t, double> value;
};

/// Everything one simulation produced: the rate summary (with the window
/// SystemCounters inside), workload-specific extras, and the area/energy
/// model outputs evaluated on those counters.
struct RunResult {
  std::string label;
  std::string workload;
  std::uint64_t seed = 0;  ///< the derived seed this rep actually ran

  workloads::RateResult rate;
  bool verified = false;

  // --- Workload-specific extras ----------------------------------------
  /// wgen kernels and the histogram: per-op completion latency over the
  /// window (p50/p95/p99 feed the wgen tables' latency columns).
  sim::Summary opLatency{};
  /// lockfair: per-core window acquisition-count spread (count > 0
  /// identifies a lockfair result; its handoff latencies reuse opLatency).
  sim::Summary acqSpread{};
  /// The workload's scalar extras in JSON key order: matmul/interference
  /// `duration`, `macs` (+ interference `pollerUpdates`); prodcons
  /// `itemsConsumed`, `consumerSleepFraction`, `consumerRequestsPerItem`;
  /// hashtable `inserts`, `lookups`; wsdeque `duration`, `steals`,
  /// `ownerPops`. Empty for the other workloads.
  std::vector<Extra> extras;

  /// The extra named `key` as a double (integers are exact below 2^53),
  /// or nullopt when this run reported none by that name.
  [[nodiscard]] std::optional<double> extra(std::string_view key) const;

  // --- Model outputs (Table I / Table II, from the same counters) -------
  double tileAreaKge = 0.0;  ///< area of one tile with this adapter config
  model::EnergyBreakdown energy{};
  double energyPerOpPj = 0.0;
  double averagePowerMw = 0.0;

  /// Per-site injected-fault counts over the window (all zero with
  /// injection off). Deterministic — identical across reruns and
  /// sweep-thread counts — and serialized only when faultSeed != 0, so
  /// outputs with injection off are untouched by the fault subsystem.
  fault::FaultCounters faultCounters{};
  /// The resolved fault seed the run used (0 = injection off).
  std::uint64_t faultSeed = 0;
};

/// The workload name a spec's results report: the explicit override, or
/// the name derived from the params family.
[[nodiscard]] std::string workloadNameFor(const RunSpec& spec);

/// Seed for repetition `rep` of a spec with base seed `base`: rep 0 is the
/// base itself; later reps come from the splitmix64 stream scheme (the
/// same derivation sim::Xoshiro256::forStream uses for per-core streams).
[[nodiscard]] std::uint64_t repSeed(std::uint64_t base, std::uint32_t rep);

/// Run one repetition of the spec on a fresh System. Throws
/// sim::InvariantViolation on simulation failures (bad geometry, lost
/// updates, ...). `rep` selects the derived seed; the single-argument
/// overload runs rep 0.
[[nodiscard]] RunResult runOne(const RunSpec& spec, std::uint32_t rep);
[[nodiscard]] RunResult runOne(const RunSpec& spec);

}  // namespace colibri::exp
