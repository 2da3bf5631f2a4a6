#include "workloads/histogram.hpp"

#include "sim/check.hpp"
#include "wgen/kernel.hpp"

namespace colibri::workloads {

const char* toString(HistogramMode m) {
  switch (m) {
    case HistogramMode::kRmw:
      return "rmw";
    case HistogramMode::kTasLock:
      return "tas-lock";
    case HistogramMode::kMcsLock:
      return "mcs-lock";
  }
  return "?";
}

wgen::KernelSpec histogramKernel(const HistogramParams& p) {
  COLIBRI_CHECK_MSG(p.bins >= 1, "histogram needs at least one bin");
  wgen::Phase phase;
  phase.op = p.mode == HistogramMode::kRmw       ? wgen::OpClass::kRmw
             : p.mode == HistogramMode::kTasLock ? wgen::OpClass::kLock
                                                 : wgen::OpClass::kMcsLock;
  phase.thinkCycles = p.iterDelay;
  phase.csCycles = 1;  // extra compute inside a lock-protected section
  wgen::KernelSpec spec;
  spec.name = HistogramParams::kName;
  spec.regions = {
      wgen::Region{.dist = wgen::AddrDist::kUniform, .range = p.bins}};
  spec.roles = {wgen::Role{"worker", 1.0, {phase}}};
  return spec;
}

HistogramResult runHistogram(arch::System& sys, const HistogramParams& p) {
  wgen::WgenParams w;
  w.kernel = histogramKernel(p);
  w.backoff = p.backoff;
  w.window = p.window;
  w.cores = p.cores;
  const auto r = wgen::runKernel(sys, w);
  return {r.rate, r.totalIncrements, r.sumVerified, r.opLatency};
}

}  // namespace colibri::workloads
