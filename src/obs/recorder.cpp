#include "obs/recorder.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <string>

#include "report/json.hpp"
#include "sim/check.hpp"

namespace colibri::obs {

namespace {

/// Gauges are doubles, but most of ours are integral sums; print those
/// without an exponent so the CSV reads (and diffs) like the counters do.
std::string formatGauge(double v) {
  if (std::isfinite(v) && std::floor(v) == v && std::abs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  COLIBRI_CHECK(ec == std::errc{});
  return std::string(buf, ptr);
}

/// Human-readable label for a log2 histogram bucket.
std::string bucketLabel(std::uint32_t b) {
  if (b == 0) {
    return "0";
  }
  const std::uint64_t lo = std::uint64_t{1} << (b - 1);
  if (b == Registry::kHistogramBuckets - 1) {
    return std::to_string(lo) + "+";
  }
  return std::to_string(lo) + "-" + std::to_string((lo << 1) - 1);
}

/// Calls onCounter or onGauge with each non-histogram value of one sample
/// row, in registration order: the column order of both sample sinks.
template <typename Row, typename OnCounter, typename OnGauge>
void forEachColumn(const std::vector<MetricInfo>& metrics, const Row& row,
                   OnCounter onCounter, OnGauge onGauge) {
  std::size_t ci = 0;
  std::size_t gi = 0;
  for (const auto& m : metrics) {
    if (m.kind == MetricKind::kCounter) {
      onCounter(row.counters[ci++]);
    } else if (m.kind == MetricKind::kGauge) {
      onGauge(row.gauges[gi++]);
    }
  }
}

}  // namespace

Recorder::Recorder(Config cfg) : cfg_(cfg), tracer_(cfg.traceEvery) {}

void Recorder::attachSystem() {
  COLIBRI_CHECK_MSG(!attached_, "a Recorder records exactly one System");
  attached_ = true;
}

void Recorder::detachSystem() { registry_.clearProbes(); }

void Recorder::sampleAt(sim::Cycle now) {
  Row row;
  row.cycle = now;
  for (const auto& m : registry_.metrics()) {
    switch (m.kind) {
      case MetricKind::kCounter:
        row.counters.push_back(registry_.counterTotal(MetricId{m.cell}));
        break;
      case MetricKind::kGauge:
        row.gauges.push_back(registry_.gaugeValue(m.cell));
        break;
      case MetricKind::kHistogram:
        break;  // buckets are emitted once, at the end
    }
  }
  samples_.push_back(std::move(row));
}

void Recorder::finalize(sim::Cycle now) {
  if (finalized_) {
    return;
  }
  finalized_ = true;
  if (attached_ && (samples_.empty() || samples_.back().cycle != now)) {
    sampleAt(now);
  }
}

std::optional<double> Recorder::value(std::string_view name) const {
  std::size_t gi = 0;  // gauge column of the sample rows
  for (const auto& m : registry_.metrics()) {
    if (m.name == name) {
      if (m.kind == MetricKind::kCounter) {
        return static_cast<double>(registry_.counterTotal(MetricId{m.cell}));
      }
      if (m.kind == MetricKind::kGauge && !samples_.empty()) {
        return samples_.back().gauges[gi];
      }
      return std::nullopt;
    }
    if (m.kind == MetricKind::kGauge) {
      ++gi;
    }
  }
  return std::nullopt;
}

void Recorder::writeMetricsCsv(std::ostream& os) const {
  os << "cycle";
  for (const auto& m : registry_.metrics()) {
    if (m.kind != MetricKind::kHistogram) {
      os << ',' << m.name;
    }
  }
  os << '\n';
  for (const auto& row : samples_) {
    os << row.cycle;
    forEachColumn(
        registry_.metrics(), row, [&](std::uint64_t v) { os << ',' << v; },
        [&](double v) { os << ',' << formatGauge(v); });
    os << '\n';
  }
}

void Recorder::writeTimeseriesBlock(report::JsonWriter& w) const {
  w.key("timeseries").beginObject();
  w.kv("interval", static_cast<std::uint64_t>(cfg_.sampleInterval));
  w.key("metrics").beginArray();
  for (const auto& m : registry_.metrics()) {
    if (m.kind != MetricKind::kHistogram) {
      w.value(m.name);
    }
  }
  w.endArray();
  // Each sample is [cycle, <metric values in the order above>].
  w.key("samples").beginArray();
  for (const auto& row : samples_) {
    w.beginArray();
    w.value(static_cast<std::uint64_t>(row.cycle));
    forEachColumn(
        registry_.metrics(), row, [&](std::uint64_t v) { w.value(v); },
        [&](double v) { w.value(v); });
    w.endArray();
  }
  w.endArray();
  w.key("histograms").beginArray();
  for (const auto& m : registry_.metrics()) {
    if (m.kind == MetricKind::kHistogram) {
      w.beginObject();
      w.kv("name", m.name);
      w.key("buckets").beginArray();
      for (std::uint32_t b = 0; b < Registry::kHistogramBuckets; ++b) {
        w.value(registry_.bucketTotal(MetricId{m.cell}, b));
      }
      w.endArray();
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();
}

void Recorder::writeChromeTrace(std::ostream& os) const {
  COLIBRI_CHECK_MSG(cfg_.traceEnabled, "trace sink without --trace");
  tracer_.writeChromeTrace(os);
}

void Recorder::printStats(std::ostream& os) const {
  std::size_t gi = 0;
  for (const auto& m : registry_.metrics()) {
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "obs: " << m.name << " = "
           << registry_.counterTotal(MetricId{m.cell}) << '\n';
        break;
      case MetricKind::kGauge:
        // After detach the probes are gone; serve the closing sample.
        if (!samples_.empty()) {
          os << "obs: " << m.name << " = "
             << formatGauge(samples_.back().gauges[gi]) << '\n';
        }
        ++gi;
        break;
      case MetricKind::kHistogram:
        for (std::uint32_t b = 0; b < Registry::kHistogramBuckets; ++b) {
          const std::uint64_t n = registry_.bucketTotal(MetricId{m.cell}, b);
          if (n != 0) {
            os << "obs: " << m.name << '[' << bucketLabel(b) << "] = " << n
               << '\n';
          }
        }
        break;
    }
  }
}

}  // namespace colibri::obs
