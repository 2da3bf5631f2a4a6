// Figure 4: histogram throughput of lock-based critical sections vs.
// generic RMW atomics at varying contention (256 cores).
//
// Curves, as in the paper (spin locks use a 128-cycle backoff):
//   Colibri          — direct LRwait/SCwait RMW (reference from Fig. 3)
//   Colibri lock     — test-and-set built from LRwait/SCwait
//   Mwait lock       — software MCS lock; waiters sleep with Mwait
//   LRSC             — direct LR/SC RMW (reference)
//   LRSC lock        — test-and-set built from LR/SC
//   Atomic Add lock  — test-and-set built from amoswap
//
// Expected shape: Colibri on top everywhere; AMO/LRSC locks worst at high
// contention (polling + retry traffic); waiting-based locks in between at
// high contention but penalized by management overhead at low contention.
#include <iostream>

#include "common.hpp"

using namespace colibri;
using workloads::HistogramMode;

namespace {

struct Curve {
  std::string name;
  arch::SystemConfig cfg;
  HistogramMode mode;
};

}  // namespace

int main() {
  const auto colibriCfg = exp::configFor(bench::namedAdapter("colibri"));
  const auto lrscCfg = exp::configFor(bench::namedAdapter("lrsc_single"));
  const std::vector<Curve> curves = {
      {"Colibri", colibriCfg, HistogramMode::kRmw},
      {"ColibriLock", colibriCfg, HistogramMode::kTasLock},
      {"MwaitLock", colibriCfg, HistogramMode::kMcsLock},
      {"LRSC", lrscCfg, HistogramMode::kRmw},
      {"LRSCLock", lrscCfg, HistogramMode::kTasLock},
      {"AmoAddLock", exp::configFor(bench::namedAdapter("amo")),
       HistogramMode::kTasLock},
  };
  const auto bins = bench::binSeries();

  std::vector<exp::RunSpec> specs;
  for (const auto& curve : curves) {
    for (const auto b : bins) {
      specs.push_back(bench::histogramSpec(
          curve.name + "/" + std::to_string(b), curve.cfg, b, curve.mode));
    }
  }
  exp::SweepRunner runner;
  const auto results = runner.run(specs);

  report::banner(
      std::cout,
      "Figure 4: lock implementations vs generic RMW atomics (256 cores)");
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

  bool colibriTops = true;
  for (std::size_t bi = 0; bi < bins.size(); ++bi) {
    for (std::size_t ci = 1; ci < curves.size(); ++ci) {
      colibriTops = colibriTops && at(0, bi) >= at(ci, bi) * 0.95;
    }
  }
  std::cout << "\nColibri outperforms every lock scheme across the sweep: "
            << (colibriTops ? "yes" : "NO (check calibration)") << "\n";
  std::cout << "Colibri vs Atomic Add lock at 1 bin: "
            << report::fmtSpeedup(at(0, 0) / at(5, 0)) << "\n";
  return 0;
}
