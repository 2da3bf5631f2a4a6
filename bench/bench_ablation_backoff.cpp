// Ablation B: backoff policy for LR/SC retry loops (the related-work
// mitigation the paper argues is insufficient, Section II).
//
// Sweeps none / fixed {32,128,512} / exponential on the 1-bin and 16-bin
// histogram. Expected: some backoff helps LR/SC a lot at high contention
// (less retry traffic per success), but no policy closes the gap to
// Colibri — backoff trades polling for idleness instead of eliminating it.
// The closing line compares the best policy with Colibri and says which way
// the data came out.
#include <iostream>

#include "common.hpp"

using namespace colibri;
using workloads::HistogramMode;

int main() {
  struct Policy {
    std::string name;
    sync::BackoffPolicy policy;
  };
  const std::vector<Policy> policies = {
      {"none", sync::BackoffPolicy::none()},
      {"fixed32", sync::BackoffPolicy::fixed(32)},
      {"fixed128", sync::BackoffPolicy::fixed(128)},
      {"fixed512", sync::BackoffPolicy::fixed(512)},
      {"exp16..4096", sync::BackoffPolicy::exponential(16, 4096)},
  };
  const std::vector<std::uint32_t> bins = {1, 16};

  const auto lrscCfg = exp::configFor(bench::namedAdapter("lrsc_single"));
  std::vector<exp::RunSpec> specs;
  for (const auto& pol : policies) {
    for (const auto b : bins) {
      specs.push_back(bench::histogramSpec(pol.name + "/" +
                                               std::to_string(b),
                                           lrscCfg, b, HistogramMode::kRmw,
                                           pol.policy));
    }
  }
  // Colibri reference (no backoff needed).
  specs.push_back(bench::histogramSpec(
      "colibri/1", exp::configFor(bench::namedAdapter("colibri")), 1,
      HistogramMode::kRmw, sync::BackoffPolicy::none()));
  exp::SweepRunner runner;
  const auto results = runner.run(specs);
  const auto rateAt = [&](std::size_t i) {
    return results[i].primary().rate.opsPerCycle;
  };

  report::banner(std::cout,
                 "Ablation B: LR/SC backoff policy (histogram, 256 cores)");
  report::Table table({"Backoff", "1 bin", "16 bins"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    table.addRow({policies[i].name, report::fmt(rateAt(i * 2), 4),
                  report::fmt(rateAt(i * 2 + 1), 4)});
  }
  table.print(std::cout);
  const double colibri = rateAt(results.size() - 1);
  std::size_t best = 0;
  for (std::size_t i = 1; i < policies.size(); ++i) {
    if (rateAt(i * 2) > rateAt(best * 2)) {
      best = i;
    }
  }
  const double bestLrsc = rateAt(best * 2);
  std::cout << "\nBest LR/SC policy at 1 bin: " << policies[best].name << " at "
            << report::fmt(bestLrsc, 4) << " vs Colibri "
            << report::fmt(colibri, 4) << " ("
            << report::fmtSpeedup(colibri / bestLrsc) << ") — "
            << (bestLrsc >= colibri ? "backoff closes the gap."
                                    : "no backoff closes the gap.")
            << '\n';
  return 0;
}
