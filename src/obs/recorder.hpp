// Recorder: one observability session over one simulation run.
//
// Owns the metric registry, the interval sample rows and (optionally) the
// span tracer. The exp layer drives it: the System attaches during
// construction (registering its probes and hot counters), sample events
// scheduled up front call sampleAt(), and finalize() takes the closing row
// before the System is destroyed — after which the gauge probes are gone
// but every recorded row and counter cell stays readable for the writers.
//
// A Recorder records exactly one System (attachSystem checks), so with
// several repetitions only rep 0 is observed; the CLI restricts the
// byte-compared sinks to --reps 1 so they never describe part of a run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>
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
  /// Called by the System under construction; a Recorder records one run.
  void attachSystem();
  /// Called by the System destructor: drops the probes into it.
  void detachSystem();
  /// Append one sample row (called from the scheduled sample events).
  void sampleAt(sim::Cycle now);
  /// Take the closing row; must run before the System is destroyed.
  void finalize(sim::Cycle now);

  [[nodiscard]] bool sampledAnything() const { return !samples_.empty(); }

  /// The value --stats prints for the counter or gauge `name`: a counter's
  /// total, a gauge's closing sample. Empty for a histogram, an unknown
  /// name, or a gauge before any sample.
  [[nodiscard]] std::optional<double> value(std::string_view name) const;

  // --- Sinks ---------------------------------------------------------------
  /// Counters and gauges as CSV: `cycle,<name>,...`, cumulative values.
  void writeMetricsCsv(std::ostream& os) const;
  /// The exp JSON `timeseries` member (key + object), same column order
  /// as the CSV, plus the histogram buckets.
  void writeTimeseriesBlock(report::JsonWriter& w) const;
  /// Chrome trace_event JSON (requires traceEnabled).
  void writeChromeTrace(std::ostream& os) const;
  /// Every metric as `obs: name = value` lines.
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
  bool finalized_ = false;
  std::vector<Row> samples_;
};

}  // namespace colibri::obs
