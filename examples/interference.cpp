// Interference demo: "my neighbors' spinlocks are slowing down my matmul"
// (the paper's Fig. 5 scenario, single-shot).
//
// 4 cores run a matrix multiplication; the other 252 cores hammer one
// atomic counter. The only thing that changes between runs is *how* the
// pollers wait — and that decides whether the matmul cores notice them.
#include <iostream>

#include "arch/system.hpp"
#include "report/table.hpp"
#include "workloads/matmul.hpp"

using namespace colibri;

namespace {

arch::SystemConfig bench_cfg(arch::AdapterKind k) {
  auto cfg = arch::SystemConfig::memPool();
  cfg.adapter = k;
  return cfg;
}

sim::Cycle baseline() {
  arch::System sys(bench_cfg(arch::AdapterKind::kAmoOnly));
  workloads::MatmulParams p;
  p.n = 24;
  p.workers = {0, 1, 2, 3};
  return workloads::runMatmul(sys, p).duration;
}

/// The pollers run the adapter's own RMW flavor.
sim::Cycle withPollers(arch::AdapterKind kind) {
  arch::System sys(bench_cfg(kind));
  workloads::InterferenceParams ip;
  ip.matmul.n = 24;
  ip.matmul.workers = {0, 1, 2, 3};
  ip.bins = 1;
  ip.pollerBackoff = sync::BackoffPolicy::fixed(128);
  for (sim::CoreId c = 4; c < 256; ++c) {
    ip.pollers.push_back(c);
  }
  return workloads::runInterference(sys, ip).matmul.duration;
}

}  // namespace

int main() {
  std::cout << "4 matmul workers vs 252 atomic pollers on one counter "
               "(poller:worker = 252:4).\n";
  const auto alone = baseline();
  const auto colibri = withPollers(arch::AdapterKind::kColibri);
  const auto lrsc = withPollers(arch::AdapterKind::kLrscSingle);

  report::Table table({"Scenario", "matmul cycles", "relative throughput"});
  table.addRow({"no pollers (baseline)", std::to_string(alone), "1.000"});
  table.addRow({"252 Colibri pollers (sleep in queue)",
                std::to_string(colibri),
                report::fmt(static_cast<double>(alone) / colibri, 3)});
  table.addRow({"252 LR/SC pollers (retry + backoff)", std::to_string(lrsc),
                report::fmt(static_cast<double>(alone) / lrsc, 3)});
  table.print(std::cout);
  std::cout << "\nSleeping waiters are invisible to bystanders; retrying\n"
               "waiters tax every core that shares the fabric with them.\n";
  return 0;
}
