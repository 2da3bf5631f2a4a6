// Shared infrastructure for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper on the
// modeled 256-core MemPool system and prints the same rows/series the
// paper reports. A bench is a declarative sweep: build a vector of
// exp::RunSpec points, hand it to exp::SweepRunner (a bounded pool — at
// most hardware_concurrency OS threads, never one thread per point), and
// index the order-preserved results back into the figure's rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "report/table.hpp"
#include "sim/check.hpp"

namespace colibri::bench {

/// The paper's contention sweep (Figs. 3 and 4).
inline std::vector<std::uint32_t> binSeries() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

/// Measurement window used by the figure benches: long enough for steady
/// state at 256 cores, short enough to keep the whole sweep in seconds.
inline workloads::MeasureWindow benchWindow() {
  return workloads::MeasureWindow{2000, 20000};
}

/// Registry adapter by name; benches name scenarios instead of
/// hand-building configs.
inline exp::AdapterSpec namedAdapter(const std::string& name) {
  auto a = exp::findAdapter(name);
  COLIBRI_CHECK_MSG(a.has_value(), "unknown adapter '" << name << "'");
  return *std::move(a);
}

/// One histogram sweep point on the paper's MemPool geometry.
inline exp::RunSpec histogramSpec(
    std::string label, arch::SystemConfig cfg, std::uint32_t bins,
    workloads::HistogramMode mode = workloads::HistogramMode::kRmw,
    sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128)) {
  workloads::HistogramParams p;
  p.bins = bins;
  p.mode = mode;
  p.backoff = backoff;
  exp::RunSpec spec;
  spec.label = std::move(label);
  spec.config = cfg;
  spec.params = p;
  spec.window = benchWindow();
  return spec;
}

}  // namespace colibri::bench
