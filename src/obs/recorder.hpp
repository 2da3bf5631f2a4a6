// Recorder: one observability session over one simulation run.
//
// Owns the metric registry, the interval sample rows and (optionally) the
// span tracer. The exp layer drives it: runOne() calls beginRun(), the
// System attaches during construction (registering its probes and hot
// counters), sample events scheduled up front call sampleAt(), and
// finalize() takes the closing row before the System is destroyed — after
// which the gauge probes are gone but every recorded row and counter cell
// stays readable for the writers.
//
// A Recorder records exactly one System (attachSystem checks); the CLI
// additionally restricts the byte-compared sinks to --reps 1 because
// concurrent repetitions share process-wide state (the coroutine frame
// pool) that would bleed into the sampled values.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/types.hpp"

namespace colibri::report {
class JsonWriter;
}

namespace colibri::obs {

class Recorder {
 public:
  struct Config {
    /// Cycles between interval samples; 0 = closing snapshot only.
    sim::Cycle sampleInterval = 0;
    /// Span tracer on/off and its 1/K sampling knob.
    bool traceEnabled = false;
    std::uint32_t traceEvery = 1;
  };

  Recorder() : Recorder(Config{}) {}
  explicit Recorder(Config cfg);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] Tracer* tracer() {
    return cfg_.traceEnabled ? &tracer_ : nullptr;
  }

  // --- Run plumbing -------------------------------------------------------
  /// Capture process-wide baselines (frame pool) before the System exists.
  void beginRun();
  /// Called by the System under construction; a Recorder records one run.
  void attachSystem();
  /// Called by the System destructor: drops the probes into it.
  void detachSystem();
  /// Append one sample row (called from the scheduled sample events).
  void sampleAt(sim::Cycle now);
  /// Take the closing row; must run before the System is destroyed.
  void finalize(sim::Cycle now);

  [[nodiscard]] bool sampledAnything() const { return !samples_.empty(); }
  [[nodiscard]] std::uint64_t frameBaseline() const { return frameBase_; }
  [[nodiscard]] std::uint64_t arenaBaseline() const { return arenaBase_; }

  // --- Sinks ---------------------------------------------------------------
  /// Deterministic metrics as CSV: `cycle,<name>,...`, cumulative values.
  void writeMetricsCsv(std::ostream& os) const;
  /// The exp JSON `timeseries` member (key + object). Deterministic
  /// metrics only, same column order as the CSV.
  void writeTimeseriesBlock(report::JsonWriter& w) const;
  /// Chrome trace_event JSON (requires traceEnabled).
  void writeChromeTrace(std::ostream& os) const;
  /// Every metric (diagnostic included) as `obs: name = value` lines.
  void printStats(std::ostream& os) const;

 private:
  struct Row {
    sim::Cycle cycle = 0;
    std::vector<std::uint64_t> counters;  // kCounter metrics, in order
    std::vector<double> gauges;           // kGauge metrics, in order
  };

  Config cfg_;
  Registry registry_;
  Tracer tracer_;
  bool attached_ = false;
  bool runBegun_ = false;
  bool finalized_ = false;
  std::uint64_t frameBase_ = 0;
  std::uint64_t arenaBase_ = 0;
  std::vector<Row> samples_;
};

}  // namespace colibri::obs
