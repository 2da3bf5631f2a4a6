// Table II: power and energy per operation for atomic accesses to the
// histogram at the highest contention (1 bin, 256 cores).
//
// The event-energy model charges the counters measured in the same runs
// as Fig. 3/4 — the exp layer evaluates it on every RunResult, so this
// bench just reads averagePowerMw / energyPerOpPj off the sweep. The
// Atomic Add row anchors the absolute scale; the LRSC / lock blow-ups
// then emerge from their measured retry and polling event counts, and
// Colibri's saving from its sleep cycles.
#include <iostream>

#include "common.hpp"

using namespace colibri;
using workloads::HistogramMode;

namespace {

struct Row {
  std::string name;
  std::string adapter;
  HistogramMode mode;
  std::uint32_t backoff;
  double paperPowerMw;
  double paperPjPerOp;
};

}  // namespace

int main() {
  const std::vector<Row> rows = {
      {"Atomic Add", "amo", HistogramMode::kRmw, 0, 175.0, 29.0},
      {"Colibri", "colibri", HistogramMode::kRmw, 0, 169.0, 124.0},
      {"LRSC", "lrsc_single", HistogramMode::kRmw, 128, 186.0, 884.0},
      {"Atomic Add lock", "amo", HistogramMode::kTasLock, 128, 188.0,
       1092.0},
  };

  // Two contention points: 1 bin (the paper's "highest contention") and
  // 4 bins. docs/ARCHITECTURE.md §4 explains why the 1-bin LR/SC and lock
  // blow-ups exceed the paper's and the 4-bin point comes closer.
  std::vector<exp::RunSpec> specs;
  for (const std::uint32_t bins : {1u, 4u}) {
    for (const auto& row : rows) {
      specs.push_back(bench::histogramSpec(
          row.name + "/" + std::to_string(bins),
          exp::configFor(bench::namedAdapter(row.adapter)), bins, row.mode,
          row.backoff == 0 ? sync::BackoffPolicy::none()
                           : sync::BackoffPolicy::fixed(row.backoff)));
    }
  }
  exp::SweepRunner runner;
  const auto results = runner.run(specs);

  const auto printSection = [&](const char* title, std::size_t base) {
    report::banner(std::cout, title);
    report::Table table({"Atomic access", "Backoff", "Power[mW]", "pJ/OP",
                         "dVsColibri", "Paper pJ/OP", "Paper d"});
    const auto pjAt = [&](std::size_t i) {
      return results[base + i].primary().energyPerOpPj;
    };
    const double colibriPj = pjAt(1);
    const auto delta = [](double pj, double ref) {
      return report::fmt(100.0 * (pj / ref - 1.0), 0) + "%";
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      table.addRow({rows[i].name, std::to_string(rows[i].backoff),
                    report::fmt(results[base + i].primary().averagePowerMw,
                                0),
                    report::fmt(pjAt(i), 0), delta(pjAt(i), colibriPj),
                    report::fmt(rows[i].paperPjPerOp, 0),
                    delta(rows[i].paperPjPerOp, 124.0)});
    }
    table.print(std::cout);
    std::cout << "LRSC / Colibri energy ratio: "
              << report::fmtSpeedup(pjAt(2) / colibriPj)
              << "  (paper: 7.1x)\n";
    std::cout << "Lock / Colibri energy ratio: "
              << report::fmtSpeedup(pjAt(3) / colibriPj)
              << "  (paper: 8.8x)\n";
  };
  printSection(
      "Table II: energy per atomic access, highest contention (1 bin)", 0);
  printSection(
      "Table II (4 bins — matches the paper's contention equilibrium, "
      "see docs/ARCHITECTURE.md §4)",
      rows.size());
  return 0;
}
