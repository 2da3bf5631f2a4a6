// Metric registry: named counters, gauges and histograms keyed to
// *simulated* cycles.
//
// Determinism contract (the reason this exists instead of ad-hoc printf):
// every metric is a function of the simulated event history alone, so its
// sampled values are bit-identical across reruns, host machines and
// SweepRunner thread counts, and every metric reaches every sink
// (--metrics-csv, the exp JSON `timeseries` block, --stats).
//
// Counters and histogram buckets are plain cells in one array. Gauges are
// probes (callbacks into live simulator state) read at sample points.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace colibri::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Opaque handle returned at registration. For counters it is the cell row;
/// for histograms the first of kHistogramBuckets consecutive rows; for
/// gauges the probe index.
struct MetricId {
  std::uint32_t cell = 0;
};

struct MetricInfo {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint32_t cell = 0;
};

class Registry {
 public:
  /// Log2 latency/value buckets per histogram: bucket 0 holds value 0,
  /// bucket k holds [2^(k-1), 2^k), the last bucket absorbs the tail.
  static constexpr std::uint32_t kHistogramBuckets = 20;

  // --- Registration (serial, during System construction) -----------------
  MetricId counter(std::string name);
  MetricId histogram(std::string name);
  MetricId gauge(std::string name, std::function<double()> probe);

  /// Drop the gauge probes (they capture the System, which is being
  /// destroyed); counter and histogram cells stay readable.
  void clearProbes();

  // --- Hot path -----------------------------------------------------------
  /// Add to a counter.
  void add(MetricId id, std::uint64_t n = 1) { cells_[id.cell] += n; }

  /// Record one value into a histogram.
  void record(MetricId id, std::uint64_t value) {
    add(MetricId{id.cell + bucketOf(value)});
  }

  [[nodiscard]] static std::uint32_t bucketOf(std::uint64_t value) {
    const auto w = static_cast<std::uint32_t>(std::bit_width(value));
    return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
  }

  // --- Reads ---------------------------------------------------------------
  [[nodiscard]] std::uint64_t counterTotal(MetricId id) const {
    return cells_.at(id.cell);
  }
  [[nodiscard]] std::uint64_t bucketTotal(MetricId id,
                                          std::uint32_t bucket) const {
    return cells_.at(id.cell + bucket);
  }
  [[nodiscard]] double gaugeValue(std::uint32_t probeIndex) const;
  [[nodiscard]] bool probesLive() const { return !probes_.empty(); }

  [[nodiscard]] const std::vector<MetricInfo>& metrics() const {
    return metrics_;
  }

 private:
  std::uint32_t addRows(std::uint32_t n);

  std::vector<MetricInfo> metrics_;
  std::vector<std::uint64_t> cells_;  ///< counter and histogram rows
  std::vector<std::function<double()>> probes_;
};

}  // namespace colibri::obs
