// Workload-generator contention sweep: every wgen preset on every adapter
// family, plus a Zipf-skew sweep — the scenario space the paper's five
// fixed kernels never measured.
//
// Part A (presets x adapters): updates/cycle for each preset across the
// adapter axis; unsupported combos (amo x CAS presets) print "-".
// Part B (skew sweep): zipf_hot with theta in {0, 0.5, 0.9, 0.99, 1.2} —
// how fast the wait-free adapters pull away as the key distribution
// sharpens.
//
// `--json` dumps the whole sweep as a colibri-exp document instead of the
// tables; the golden_bench_wgen_contention CTest compares that document
// byte for byte with bench/golden/bench_wgen_contention.json.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/json.hpp"
#include "wgen/presets.hpp"

using namespace colibri;

namespace {

exp::RunSpec wgenSpec(std::string label, const exp::AdapterSpec& adapter,
                      wgen::KernelSpec kernel) {
  wgen::WgenParams p;
  p.kernel = std::move(kernel);
  exp::RunSpec spec;
  spec.label = std::move(label);
  spec.workload = p.kernel.name;
  spec.config = exp::configFor(adapter);
  spec.params = std::move(p);
  spec.window = bench::benchWindow();
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::string(argv[1]) == "--json";

  const std::vector<std::string> adapterNames = {
      "amo", "lrsc_single", "lrsc_table", "lrscwait", "colibri"};
  const std::vector<double> thetas = {0.0, 0.5, 0.9, 0.99, 1.2};

  // Part A: presets x adapters. supported[i] marks runnable combos; the
  // spec list holds only those, in (preset-major, adapter-minor) order.
  std::vector<exp::RunSpec> specs;
  std::vector<std::vector<bool>> runnable;
  for (const auto& preset : wgen::presets()) {
    auto& row = runnable.emplace_back();
    for (const auto& name : adapterNames) {
      const auto adapter = bench::namedAdapter(name);
      const bool ok = !(adapter.kind == arch::AdapterKind::kAmoOnly &&
                        wgen::needsReservations(preset.spec));
      row.push_back(ok);
      if (ok) {
        specs.push_back(wgenSpec(preset.spec.name + "/" + name, adapter,
                                 preset.spec));
      }
    }
  }
  // Part B: zipf_hot skew sweep (appended after Part A's specs).
  const std::size_t skewBase = specs.size();
  for (const double theta : thetas) {
    for (const auto& name : adapterNames) {
      auto kernel = wgen::findPreset("zipf_hot")->spec;
      kernel.regions[0].zipfTheta = theta;
      specs.push_back(wgenSpec(
          "zipf_theta_" + report::fmt(theta, 2) + "/" + name,
          bench::namedAdapter(name), std::move(kernel)));
    }
  }

  exp::SweepRunner runner;
  const auto results = runner.run(specs);

  if (json) {
    exp::writeJson(std::cout, specs, results);
    return 0;
  }

  report::banner(std::cout,
                 "wgen contention: presets x adapters (updates/cycle)");
  {
    std::vector<std::string> headers{"preset"};
    headers.insert(headers.end(), adapterNames.begin(), adapterNames.end());
    headers.insert(headers.end(), {"p50", "p99"});  // colibri latency
    report::Table table(headers);
    std::size_t next = 0;
    for (std::size_t pi = 0; pi < wgen::presets().size(); ++pi) {
      std::vector<std::string> row{wgen::presets()[pi].spec.name};
      double colP50 = 0.0;
      double colP99 = 0.0;
      for (std::size_t ai = 0; ai < adapterNames.size(); ++ai) {
        if (!runnable[pi][ai]) {
          row.push_back("-");
          continue;
        }
        const auto& r = results[next++].primary();
        row.push_back(report::fmt(r.rate.opsPerCycle, 4));
        if (adapterNames[ai] == "colibri") {
          colP50 = r.opLatency.p50;
          colP99 = r.opLatency.p99;
        }
      }
      row.push_back(report::fmt(colP50, 1));
      row.push_back(report::fmt(colP99, 1));
      table.addRow(row);
    }
    table.print(std::cout);
  }

  report::banner(std::cout,
                 "wgen skew sweep: zipf_hot updates/cycle vs theta");
  {
    std::vector<std::string> headers{"theta"};
    headers.insert(headers.end(), adapterNames.begin(), adapterNames.end());
    report::Table table(headers);
    for (std::size_t ti = 0; ti < thetas.size(); ++ti) {
      std::vector<std::string> row{report::fmt(thetas[ti], 2)};
      for (std::size_t ai = 0; ai < adapterNames.size(); ++ai) {
        const auto& r =
            results[skewBase + ti * adapterNames.size() + ai].primary();
        row.push_back(report::fmt(r.rate.opsPerCycle, 4));
      }
      table.addRow(row);
    }
    table.print(std::cout);
  }
  return 0;
}
