// Command-line options for the colibri-sim driver.
//
// The flag surface covers the full scenario space: adapter choice,
// workload choice, geometry (everything arch::SystemConfig exposes), the
// measurement window, and per-workload knobs. Parsing never aborts the
// process: errors come back as a message naming the offending flag plus a
// pointer to --help, so the driver (and the tests) can decide what to do.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace colibri::cli {

struct Options {
  // --- Scenario selection -----------------------------------------------
  std::string adapter = "colibri";
  std::string workload = "histogram";

  // --- Geometry (arch::SystemConfig) ------------------------------------
  std::uint32_t cores = 256;
  std::uint32_t coresPerTile = 4;
  std::uint32_t tilesPerGroup = 16;
  std::uint32_t banksPerTile = 16;
  std::uint32_t wordsPerBank = 256;

  // --- Adapter knobs ------------------------------------------------------
  /// LRSCwait_q reservation-queue capacity; 0 = "ideal" (one slot per core).
  std::uint32_t waitCapacity = 8;
  /// Colibri head/tail queue slots per memory controller.
  std::uint32_t colibriQueues = 4;

  // --- Measurement window -------------------------------------------------
  std::uint64_t warmup = 2000;
  std::uint64_t measure = 20000;

  // --- Workload knobs -----------------------------------------------------
  std::uint32_t bins = 16;          ///< histogram
  std::uint32_t backoffCycles = 128;
  std::uint32_t producers = 8;      ///< prodcons
  std::uint32_t consumers = 8;      ///< prodcons
  std::uint32_t queueCapacity = 0;  ///< msqueue/ticket_queue; 0 = 2*cores
  std::uint32_t matmulN = 32;       ///< matmul dimension
  std::uint32_t htSlots = 0;        ///< hashtable size; 0 = 16*cores
  std::uint32_t htKeys = 0;         ///< hashtable inserts/core; 0 = share
  std::uint32_t wsdTasks = 0;       ///< wsdeque ring size; 0 = 8*cores
  std::uint32_t taskCycles = 12;    ///< wsdeque compute per task
  std::uint32_t csCycles = 8;       ///< lockfair critical-section cycles

  // --- Workload-generator (wgen preset) overrides --------------------------
  /// Zipf skew θ for zipfian regions; unset = keep the preset value.
  std::optional<double> zipfTheta;
  /// Hot-word probability for hotspot regions; unset = preset value.
  std::optional<double> hotFraction;
  /// Region word count for non-strided regions; 0 = preset value.
  std::uint32_t wgenWords = 0;

  std::uint64_t seed = 0xC011B21;

  // --- Fault injection & watchdog -----------------------------------------
  /// Canned fault profile ("net_jitter" | "sc_storm" | "evict_churn" |
  /// "chaos") or "off" (default). Individual --fault-* flags overlay the
  /// profile (or enable single sites on top of "off").
  std::string faultProfile = "off";
  /// Fault decision seed; 0 derives one from --seed (so reps explore
  /// distinct fault schedules unless pinned here).
  std::uint64_t faultSeed = 0;
  /// "P,MAX" per-site overlays; empty = keep the profile's value. P alone
  /// is accepted for the probability-only site (sc-fail, evict).
  std::string faultNetDelay;
  std::string faultScFail;
  std::string faultEvict;
  std::string faultStall;
  /// Watchdog limit in cycles (no productive retirement for this long with
  /// tasks outstanding = diagnosed hang, exit 3). 0 disables.
  std::uint64_t watchdog = 250'000;

  // --- Litmus mode --------------------------------------------------------
  /// Litmus algorithm name ("dekker" | "peterson" | "bakery" | "tas" |
  /// "naive" | "race") or "all"; empty = normal workload mode.
  std::string litmus;
  /// Contending cores; 0 = the algorithm's default (clamped to its range).
  std::uint32_t contenders = 0;
  std::uint32_t litmusIters = 40;  ///< CS entries per contender
  /// Run the full algorithm x adapter matrix instead of one adapter.
  bool litmusMatrix = false;
  /// Posted (unfenced) protocol stores: the memory-model probe that lets
  /// the flag algorithms' store->load race actually happen.
  bool unfenced = false;

  // --- Experiment execution -----------------------------------------------
  /// Independent repetitions with derived seeds; > 1 reports aggregate
  /// mean/stddev across reps.
  std::uint32_t reps = 1;
  /// exp::SweepRunner pool size; 0 = hardware_concurrency.
  std::uint32_t threads = 0;

  // --- Observability sinks -------------------------------------------------
  /// Write interval metric samples (deterministic metrics only) as CSV to
  /// this file. Requires --reps 1.
  std::string metricsCsv;
  /// Cycles between metric samples; 0 = default (1000) when a metrics
  /// sink is active.
  std::uint64_t metricsInterval = 0;
  /// Write per-request lifecycle spans as Chrome trace_event JSON
  /// (Perfetto-loadable) to this file. Requires --reps 1.
  std::string trace;
  /// Record every K-th op per core in the trace (deterministic sampling).
  std::uint32_t traceSample = 1;

  // --- Output / control ---------------------------------------------------
  bool csv = false;
  bool json = false;
  /// Print every registry metric to stderr after the run. Machine outputs
  /// (csv/json/stdout) are untouched.
  bool stats = false;
  bool listScenarios = false;
  bool help = false;
};

/// Result of parsing: either a valid Options or an error message that
/// names the offending flag and suggests --help.
struct ParseResult {
  Options options;
  std::optional<std::string> error;

  [[nodiscard]] bool ok() const { return !error.has_value(); }
};

/// Parse argv (excluding argv[0]). Unknown flags, missing values, and
/// malformed numbers all produce ParseResult::error.
[[nodiscard]] ParseResult parseArgs(const std::vector<std::string>& args);

/// Print the flag reference (the --help text).
void printUsage(std::ostream& os);

}  // namespace colibri::cli
