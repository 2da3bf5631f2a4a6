// Figure 5: matrix-multiplication performance under interference from
// concurrent atomics.
//
// The 256 cores are partitioned into matmul workers and histogram pollers
// (ratios annotated poller:worker as in the paper). The y-axis is the
// workers' throughput relative to an interference-free run with the same
// worker count.
//
// Expected shape: Colibri pollers leave the workers essentially untouched
// even at 252:4 and 1 bin (relative throughput ~1.0); LR/SC pollers drag
// them down — hardest with many pollers on few bins (the paper reports
// 0.26 at 252:4) — because their retry traffic floods the banks and links
// the workers need.
#include <iostream>
#include <numeric>

#include "common.hpp"

using namespace colibri;
using workloads::InterferenceParams;
using workloads::MatmulParams;

namespace {

struct Series {
  std::string name;
  std::string adapter;  ///< its RMW flavor drives the pollers
  std::uint32_t workers;
};

constexpr std::uint32_t kMatrixN = 24;

MatmulParams matmulFor(std::uint32_t workers) {
  MatmulParams p;
  p.n = kMatrixN;
  p.workers.resize(workers);
  // Workers are the first cores; pollers fill the rest (as in the paper's
  // partitioning of MemPool).
  std::iota(p.workers.begin(), p.workers.end(), 0);
  return p;
}

}  // namespace

int main() {
  const std::vector<Series> series = {
      {"Colibri 252:4", "colibri", 4},
      {"LRSC 128:128", "lrsc_single", 128},
      {"LRSC 192:64", "lrsc_single", 64},
      {"LRSC 248:8", "lrsc_single", 8},
      {"LRSC 252:4", "lrsc_single", 4},
  };
  const std::vector<std::uint32_t> bins = {1, 4, 8, 12, 16};

  // One sweep: interference-free baselines (one per distinct worker
  // count) first, then every series x bins point.
  const std::vector<std::uint32_t> workerCounts = {4, 8, 64, 128};
  std::vector<exp::RunSpec> specs;
  for (const auto w : workerCounts) {
    exp::RunSpec spec;
    spec.label = "baseline/" + std::to_string(w);
    spec.config = exp::configFor(bench::namedAdapter("amo"));
    spec.params = matmulFor(w);
    spec.window = bench::benchWindow();
    specs.push_back(std::move(spec));
  }
  for (const auto& s : series) {
    for (const auto b : bins) {
      InterferenceParams ip;
      ip.matmul = matmulFor(s.workers);
      ip.bins = b;
      ip.pollerBackoff = sync::BackoffPolicy::fixed(128);
      for (sim::CoreId c = s.workers; c < 256; ++c) {
        ip.pollers.push_back(c);
      }
      exp::RunSpec spec;
      spec.label = s.name + "/" + std::to_string(b);
      spec.config = exp::configFor(bench::namedAdapter(s.adapter));
      spec.params = std::move(ip);
      spec.window = bench::benchWindow();
      specs.push_back(std::move(spec));
    }
  }
  exp::SweepRunner runner;
  const auto results = runner.run(specs);

  const auto baselineFor = [&](std::uint32_t w) {
    for (std::size_t i = 0; i < workerCounts.size(); ++i) {
      if (workerCounts[i] == w) {
        return results[i].primary().extra("duration").value();
      }
    }
    return results[workerCounts.size() - 1].primary().extra("duration").value();
  };
  const auto durationAt = [&](std::size_t si, std::size_t bi) {
    return results[workerCounts.size() + si * bins.size() + bi]
        .primary()
        .extra("duration")
        .value();
  };

  report::banner(std::cout,
                 "Figure 5: matmul throughput under atomic interference "
                 "(relative to no interference; ratio is poller:worker)");
  std::vector<std::string> headers{"#Bins"};
  for (const auto& s : series) {
    headers.push_back(s.name);
  }
  report::Table table(headers);
  for (std::size_t bi = 0; bi < bins.size(); ++bi) {
    std::vector<std::string> row{std::to_string(bins[bi])};
    for (std::size_t si = 0; si < series.size(); ++si) {
      const double rel =
          baselineFor(series[si].workers) / durationAt(si, bi);
      row.push_back(report::fmt(rel, 3));
    }
    table.addRow(row);
  }
  table.print(std::cout);

  const double colibriWorst = baselineFor(4) / durationAt(0, 0);
  const double lrscWorst = baselineFor(4) / durationAt(4, 0);
  std::cout << "\nColibri 252:4 at 1 bin keeps workers at "
            << report::fmt(100.0 * colibriWorst, 1)
            << "% (paper: ~100%); LRSC 252:4 drags them to "
            << report::fmt(100.0 * lrscWorst, 1) << "% (paper: 26%).\n";
  return 0;
}
