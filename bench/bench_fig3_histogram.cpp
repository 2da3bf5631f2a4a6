// Figure 3: histogram throughput (updates/cycle) vs. #bins for the
// LRSCwait implementations and standard RISC-V atomics on 256 cores.
//
// Curves, exactly as in the paper:
//   Atomic Add       — AMO unit (the roofline)
//   LRSCwait_ideal   — reservation queue with one slot per core (q = 256)
//   LRSCwait_128     — q = 128
//   LRSCwait_1       — q = 1
//   Colibri          — distributed queue (4 queues per controller)
//   LRSC             — MemPool single-slot LR/SC, 128-cycle retry backoff
//
// Expected shape: LRSCwait_ideal on top across the sweep, Colibri
// near-ideal (it pays the extra WakeUp round trip), LRSCwait_q collapsing
// once contention exceeds q, LRSC worst at high contention (~6.5x below
// Colibri at 1 bin in the paper), everyone converging near the AMO
// roofline at 1024 bins (Colibri ahead of LRSC by ~13% there).
#include <iostream>

#include "common.hpp"

using namespace colibri;

namespace {

struct Curve {
  std::string name;
  arch::SystemConfig cfg;
};

}  // namespace

int main() {
  const std::vector<Curve> curves = {
      {"AtomicAdd", exp::configFor(bench::namedAdapter("amo"))},
      {"LRSCwait_ideal",
       exp::configFor(bench::namedAdapter("lrscwait_ideal"))},
      {"LRSCwait_128", exp::configFor(bench::namedAdapter("lrscwait"), 128)},
      {"LRSCwait_1", exp::configFor(bench::namedAdapter("lrscwait"), 1)},
      {"Colibri", exp::configFor(bench::namedAdapter("colibri"))},
      {"LRSC", exp::configFor(bench::namedAdapter("lrsc_single"))},
  };
  const auto bins = bench::binSeries();

  std::vector<exp::RunSpec> specs;
  for (const auto& curve : curves) {
    for (const auto b : bins) {
      specs.push_back(bench::histogramSpec(
          curve.name + "/" + std::to_string(b), curve.cfg, b));
    }
  }
  exp::SweepRunner runner;
  const auto results = runner.run(specs);

  report::banner(std::cout,
                 "Figure 3: histogram updates/cycle vs #bins (256 cores)");
  std::vector<std::string> headers{"#Bins"};
  for (const auto& c : curves) {
    headers.push_back(c.name);
  }
  const auto at = [&](std::size_t ci, std::size_t bi) {
    return results[ci * bins.size() + bi].primary().rate.opsPerCycle;
  };
  report::Table table(headers);
  for (std::size_t bi = 0; bi < bins.size(); ++bi) {
    std::vector<std::string> row{std::to_string(bins[bi])};
    for (std::size_t ci = 0; ci < curves.size(); ++ci) {
      row.push_back(report::fmt(at(ci, bi), 4));
    }
    table.addRow(row);
  }
  table.print(std::cout);

  const std::size_t last = bins.size() - 1;
  std::cout << "\nColibri vs LRSC at 1 bin:     "
            << report::fmtSpeedup(at(4, 0) / at(5, 0))
            << "  (paper: 6.5x)\n";
  std::cout << "Colibri vs LRSC at 1024 bins: "
            << report::fmtSpeedup(at(4, last) / at(5, last))
            << "  (paper: 1.13x)\n";
  std::cout << "Colibri vs LRSCwait_ideal at 1 bin: "
            << report::fmt(100.0 * at(4, 0) / at(1, 0), 1)
            << "% of ideal (near-ideal expected)\n";
  return 0;
}
