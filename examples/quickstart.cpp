// Quickstart: build a small Colibri system, run a handful of cores doing
// atomic increments with LRwait/SCwait, and print what happened.
//
// This is the smallest end-to-end use of the library:
//   1. configure a system (geometry + adapter),
//   2. write workload kernels as coroutines over the Core API,
//   3. run and inspect memory/statistics.
#include <iostream>

#include "arch/system.hpp"
#include "sync/atomic.hpp"
#include "sync/backoff.hpp"

using namespace colibri;

namespace {

// Each worker atomically increments a shared counter `iters` times using
// the paper's LRwait/SCwait pair: contending cores sleep in the bank's
// reservation queue instead of spinning.
sim::Task worker(arch::System& sys, arch::Core& core, sim::Addr counter,
                 int iters) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff backoff(sync::BackoffPolicy::fixed(128), rng);
  for (int i = 0; i < iters; ++i) {
    const auto r = co_await sync::fetchAdd(core, sync::RmwFlavor::kLrscWait,
                                           counter, 1, backoff);
    if (core.id() == 0 && i == 0) {
      std::cout << "core 0 saw counter value " << r.old
                << " on its first increment\n";
    }
  }
}

}  // namespace

int main() {
  // A 16-core system (4 tiles x 4 cores, 16 banks) with Colibri adapters.
  arch::SystemConfig cfg = arch::SystemConfig::smallTest();
  cfg.adapter = arch::AdapterKind::kColibri;
  arch::System sys(cfg);

  const sim::Addr counter = sys.allocator().allocGlobal(1);
  sys.poke(counter, 0);

  constexpr int kIters = 100;
  for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
    sys.spawn(c, worker(sys, sys.core(c), counter, kIters));
  }
  sys.run();
  sys.rethrowFailures();

  const auto finalValue = sys.peek(counter);
  std::cout << cfg.numCores << " cores x " << kIters << " increments -> "
            << finalValue << " (expected " << cfg.numCores * kIters << ")\n";
  std::cout << "simulated cycles: " << sys.now() << "\n";

  std::uint64_t sleep = 0;
  std::uint64_t issued = 0;
  for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
    sleep += sys.core(c).stats().sleepCycles;
    issued += sys.core(c).stats().issued;
  }
  std::cout << "memory ops issued: " << issued
            << " (2 per increment + queue-full retries)\n";
  std::cout << "core-cycles spent asleep in the reservation queue: " << sleep
            << "\n";
  return finalValue == cfg.numCores * kIters ? 0 : 1;
}
