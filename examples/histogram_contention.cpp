// Histogram contention sweep — a compact version of the paper's headline
// experiment (Fig. 3), runnable in seconds.
//
// Builds three 256-core systems (Colibri, MemPool-style LR/SC, AMO unit)
// and sweeps the number of histogram bins, printing updates/cycle and the
// Colibri speedup over LR/SC at each contention level.
//
// Usage: histogram_contention [max_bins]
#include <cstdlib>
#include <iostream>

#include "arch/system.hpp"
#include "report/table.hpp"
#include "workloads/histogram.hpp"

using namespace colibri;
using workloads::HistogramParams;

namespace {

/// The adapter's own RMW flavor: LRwait/SCwait, LR/SC or an AMO add.
double run(arch::AdapterKind kind, std::uint32_t bins) {
  auto cfg = arch::SystemConfig::memPool();
  cfg.adapter = kind;
  arch::System sys(cfg);
  HistogramParams p;
  p.bins = bins;
  p.window = workloads::MeasureWindow{1000, 8000};
  p.backoff = sync::BackoffPolicy::fixed(128);
  const auto r = workloads::runHistogram(sys, p);
  return r.rate.opsPerCycle;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t maxBins =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 256;

  std::cout << "Concurrent histogram on a simulated 256-core MemPool-like "
               "system.\nFewer bins = more contention.\n";
  report::Table table(
      {"#Bins", "Colibri", "LRSC", "AtomicAdd", "Colibri/LRSC"});
  for (std::uint32_t bins = 1; bins <= maxBins; bins *= 4) {
    const double colibri = run(arch::AdapterKind::kColibri, bins);
    const double lrsc = run(arch::AdapterKind::kLrscSingle, bins);
    const double amo = run(arch::AdapterKind::kAmoOnly, bins);
    table.addRow({std::to_string(bins), report::fmt(colibri, 4),
                  report::fmt(lrsc, 4), report::fmt(amo, 4),
                  report::fmtSpeedup(colibri / lrsc)});
  }
  table.print(std::cout);
  std::cout << "\nColibri (LRwait/SCwait) keeps ordered, polling-free\n"
               "progress under contention; LR/SC burns its cycles on\n"
               "failed store-conditionals and backoff.\n";
  return 0;
}
