// Scenario registry: the cross product of every named adapter and every
// named workload, with the mapping rules that make each pair runnable
// (e.g. the histogram falls back from LRwait/SCwait to plain AMO adds on
// an AMO-only system; Mwait-based waiting degrades to polling on adapters
// without wait support).
//
// The registry is the single source of truth shared by the CLI driver,
// the figure benches, and the tests: all of them name scenarios instead
// of hand-building SystemConfigs. `configFor` turns an AdapterSpec into a
// ready SystemConfig; `queueVariantFor` encodes which queue each adapter
// actually runs. The histogram needs no such rule: `histogramModeFor`
// always picks the RMW kernel and the adapter selects its flavor.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "workloads/histogram.hpp"
#include "workloads/msqueue.hpp"

namespace colibri::exp {

/// A named adapter configuration (AdapterKind plus the config knobs that
/// distinguish e.g. LRSCwait_q from LRSCwait_ideal).
struct AdapterSpec {
  std::string name;
  arch::AdapterKind kind;
  /// True for adapters that implement LRwait/SCwait and Mwait
  /// (reservation-queue waiting); false for retry-based LR/SC and AMO.
  bool waitCapable = false;
  /// True when the wait-queue capacity should be forced to numCores
  /// ("ideal").
  bool idealCapacity = false;
  std::string description;
};

struct WorkloadSpec {
  std::string name;
  std::string description;
};

/// One adapter x workload combination.
struct Scenario {
  AdapterSpec adapter;
  WorkloadSpec workload;
  /// False for combinations that cannot run. Currently only
  /// (amo, prodcons): the pipeline's ticket RMWs need LR/SC at minimum,
  /// and the AMO-only adapter rejects reservations outright. Queue
  /// workloads survive on amo by running lock-based (amoswap spinlock).
  bool supported = true;
  /// For unsupported pairs: the human-readable reason (shown by the CLI).
  std::string whyUnsupported;
};

/// All named adapters, in presentation order.
[[nodiscard]] const std::vector<AdapterSpec>& adapters();

/// All named workloads, in presentation order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

/// The full adapter x workload cross product (adapters-major order).
[[nodiscard]] std::vector<Scenario> allScenarios();

/// Look up by name; nullopt if unknown.
[[nodiscard]] std::optional<AdapterSpec> findAdapter(const std::string& name);
[[nodiscard]] std::optional<WorkloadSpec> findWorkload(const std::string& name);
/// The registry entry for one (adapter, workload) pair; nullopt if either
/// name is unknown.
[[nodiscard]] std::optional<Scenario> findScenario(const std::string& adapter,
                                                   const std::string& workload);

/// Comma-separated name lists for error messages.
[[nodiscard]] std::string adapterNameList();
[[nodiscard]] std::string workloadNameList();

/// The histogram mode the registry runs on an adapter: its RMW, whose
/// flavor (AMO, LR/SC or LRwait/SCwait) the adapter itself selects.
[[nodiscard]] workloads::HistogramMode histogramModeFor(
    const AdapterSpec& adapter);

/// The queue variant each adapter runs for the msqueue workload.
[[nodiscard]] workloads::QueueVariant queueVariantFor(
    const AdapterSpec& adapter);

/// A SystemConfig for the adapter on the given base geometry (defaults to
/// the paper's 256-core MemPool). `waitCapacity` sizes the LRSCwait_q
/// reservation queue; 0 — or an idealCapacity adapter — means one slot
/// per core.
[[nodiscard]] arch::SystemConfig configFor(
    const AdapterSpec& adapter, std::uint32_t waitCapacity = 8,
    arch::SystemConfig base = arch::SystemConfig::memPool());

}  // namespace colibri::exp
