#include "workloads/harness.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace colibri::workloads {

sync::RmwFlavor rmwFlavorFor(arch::AdapterKind k) {
  switch (k) {
    case arch::AdapterKind::kAmoOnly:
      return sync::RmwFlavor::kAmo;
    case arch::AdapterKind::kLrscWait:
    case arch::AdapterKind::kColibri:
      return sync::RmwFlavor::kLrscWait;
    default:
      return sync::RmwFlavor::kLrsc;
  }
}

sync::SpinLockKind lockKindFor(arch::AdapterKind k) {
  switch (k) {
    case arch::AdapterKind::kAmoOnly:
      return sync::SpinLockKind::kAmoTas;
    case arch::AdapterKind::kLrscWait:
    case arch::AdapterKind::kColibri:
      return sync::SpinLockKind::kLrwaitTas;
    default:
      return sync::SpinLockKind::kLrscTas;
  }
}

SystemCounters snapshotCounters(arch::System& sys, Cycle windowCycles,
                                std::uint32_t participants) {
  SystemCounters s;
  s.windowCycles = windowCycles;
  s.activeCores = participants;
  for (sim::CoreId c = 0; c < sys.numCores(); ++c) {
    const auto& cs = sys.core(c).stats();
    s.instructions += cs.issued;
    s.computeCycles += cs.computeCycles;
    s.sleepCycles += cs.sleepCycles;
    s.stallCycles += cs.stallCycles;
  }
  for (const auto& b : sys.builtBanks()) {
    s.bankAccesses += b->stats().requests;
  }
  s.netMessages = sys.network().stats().messagesByDistance;
  return s;
}

RateResult summarizeRates(const std::vector<std::uint64_t>& perCoreWindowOps,
                          Cycle windowCycles, const SystemCounters& counters) {
  RateResult r;
  r.perCoreWindowOps = perCoreWindowOps;
  r.counters = counters;
  if (windowCycles == 0) {
    return r;
  }
  std::uint64_t total = 0;
  std::uint64_t lo = ~0ULL;
  std::uint64_t hi = 0;
  for (auto v : perCoreWindowOps) {
    total += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (perCoreWindowOps.empty()) {
    lo = 0;
  }
  r.opsInWindow = total;
  const double w = static_cast<double>(windowCycles);
  r.opsPerCycle = static_cast<double>(total) / w;
  r.perCoreMinRate = static_cast<double>(lo) / w;
  r.perCoreMaxRate = static_cast<double>(hi) / w;
  r.fairnessJain = sim::Summary::jainIndex(perCoreWindowOps);
  return r;
}

Window::Window(arch::System& sys, const MeasureWindow& w,
               std::vector<sim::CoreId> cores)
    : sys_(sys), w_(w), cores_(std::move(cores)) {
  if (cores_.empty()) {
    cores_.resize(sys.numCores());
    std::iota(cores_.begin(), cores_.end(), 0);
  }
  perCoreWindow_.assign(cores_.size(), 0);
}

RateResult Window::run(const char* who,
                       const std::function<void()>& atHorizon) {
  sys_.at(w_.warmup, [this] { sys_.resetStats(); });
  sys_.at(w_.horizon(), [this] { stop_ = true; });
  sys_.runUntil(w_.horizon());
  if (atHorizon) {
    atHorizon();
  }
  const auto counters = snapshotCounters(sys_, w_.measure, participants());
  sys_.drain(who);
  return summarizeRates(perCoreWindow_, w_.measure, counters);
}

}  // namespace colibri::workloads
