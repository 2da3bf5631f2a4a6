#include "obs/registry.hpp"

#include <utility>

#include "sim/check.hpp"

namespace colibri::obs {

std::uint32_t Registry::addRows(std::uint32_t n) {
  const auto first = static_cast<std::uint32_t>(cells_.size());
  cells_.resize(cells_.size() + n, 0);
  return first;
}

MetricId Registry::counter(std::string name) {
  const MetricId id{addRows(1)};
  metrics_.push_back({std::move(name), MetricKind::kCounter, id.cell});
  return id;
}

MetricId Registry::histogram(std::string name) {
  const MetricId id{addRows(kHistogramBuckets)};
  metrics_.push_back({std::move(name), MetricKind::kHistogram, id.cell});
  return id;
}

MetricId Registry::gauge(std::string name, std::function<double()> probe) {
  const MetricId id{static_cast<std::uint32_t>(probes_.size())};
  probes_.push_back(std::move(probe));
  metrics_.push_back({std::move(name), MetricKind::kGauge, id.cell});
  return id;
}

void Registry::clearProbes() { probes_.clear(); }

double Registry::gaugeValue(std::uint32_t probeIndex) const {
  COLIBRI_CHECK_MSG(probeIndex < probes_.size() && probes_[probeIndex],
                    "gauge probe read after detach");
  return probes_[probeIndex]();
}

}  // namespace colibri::obs
