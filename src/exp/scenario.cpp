#include "exp/scenario.hpp"

#include "wgen/presets.hpp"

namespace colibri::exp {

const std::vector<AdapterSpec>& adapters() {
  static const std::vector<AdapterSpec> kAdapters = {
      {"amo", arch::AdapterKind::kAmoOnly, false, false,
       "AMO unit only (no LR/SC, no waiting) — the throughput roofline"},
      {"lrsc_single", arch::AdapterKind::kLrscSingle, false, false,
       "MemPool-style LR/SC: one reservation slot per bank, retry loop"},
      {"lrsc_table", arch::AdapterKind::kLrscTable, false, false,
       "ATUN-style LR/SC: one reservation per core per bank"},
      {"lrscwait", arch::AdapterKind::kLrscWait, true, false,
       "LRSCwait_q: in-order reservation queue of capacity q per bank"},
      {"lrscwait_ideal", arch::AdapterKind::kLrscWait, true, true,
       "LRSCwait with one queue slot per core (the paper's ideal curve)"},
      {"colibri", arch::AdapterKind::kColibri, true, false,
       "Colibri: O(Q)-state distributed queue (head/tail + per-core Qnodes)"},
  };
  return kAdapters;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> ws = {
        {"histogram",
         "concurrent histogram: random-bin atomic increments (Figs. 3/4)"},
        {"msqueue",
         "MPMC ticket queue, balanced enqueue/dequeue steady state (Fig. 6)"},
        {"prodcons",
         "producer/consumer pipeline; consumers sleep (Mwait) or poll"},
        {"matmul",
         "SPM-interleaved matrix multiply, the Fig. 5 interference victim"},
        {"ticket_queue",
         "lock-based bounded ticket queue (the Fig. 6 'Atomic Add lock' "
         "curve)"},
        {"hashtable",
         "lock-free linear-probing hash table: CAS inserts, probe lookups"},
        {"wsdeque",
         "Chase-Lev work-stealing deque drained to completion (exactly-once "
         "checked)"},
        {"lockfair",
         "TAS spin-lock fairness/handoff study: per-core acquisition spread"},
    };
    // Workload-generator presets are first-class workloads: the CLI,
    // RunSpec dispatch, and SweepRunner treat them like the fixed ones.
    for (const auto& p : wgen::presets()) {
      ws.push_back({p.spec.name, "wgen: " + p.description});
    }
    return ws;
  }();
  return kWorkloads;
}

std::vector<Scenario> allScenarios() {
  std::vector<Scenario> out;
  out.reserve(adapters().size() * workloads().size());
  for (const auto& a : adapters()) {
    for (const auto& w : workloads()) {
      Scenario s{a, w, /*supported=*/true, /*whyUnsupported=*/{}};
      // prodcons claims tickets with LR/SC (or LRwait/SCwait); the
      // AMO-only adapter rejects reservations, so that pair cannot run.
      // The same rule gates wgen presets built around CAS loops.
      if (a.kind == arch::AdapterKind::kAmoOnly) {
        if (w.name == "prodcons") {
          s.supported = false;
          s.whyUnsupported =
              "prodcons needs LR/SC at minimum and the AMO-only adapter "
              "has no reservations";
        } else if (w.name == "hashtable" || w.name == "wsdeque") {
          s.supported = false;
          s.whyUnsupported = w.name +
                             " claims words with CAS and the AMO-only "
                             "adapter has no reservations";
        } else if (const auto* preset = wgen::findPreset(w.name);
                   preset != nullptr &&
                   wgen::needsReservations(preset->spec)) {
          s.supported = false;
          s.whyUnsupported = "preset '" + w.name +
                             "' runs CAS loops and the AMO-only adapter "
                             "has no reservations";
        }
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::optional<AdapterSpec> findAdapter(const std::string& name) {
  for (const auto& a : adapters()) {
    if (a.name == name) {
      return a;
    }
  }
  return std::nullopt;
}

std::optional<WorkloadSpec> findWorkload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) {
      return w;
    }
  }
  return std::nullopt;
}

std::optional<Scenario> findScenario(const std::string& adapter,
                                     const std::string& workload) {
  for (auto& s : allScenarios()) {
    if (s.adapter.name == adapter && s.workload.name == workload) {
      return std::move(s);
    }
  }
  return std::nullopt;
}

namespace {

template <typename Specs>
std::string joinNames(const Specs& specs) {
  std::string out;
  for (const auto& s : specs) {
    if (!out.empty()) {
      out += ", ";
    }
    out += s.name;
  }
  return out;
}

}  // namespace

std::string adapterNameList() { return joinNames(adapters()); }
std::string workloadNameList() { return joinNames(workloads()); }

workloads::HistogramMode histogramModeFor(const AdapterSpec& /*adapter*/) {
  return workloads::HistogramMode::kRmw;
}

workloads::QueueVariant queueVariantFor(const AdapterSpec& adapter) {
  if (adapter.waitCapable) {
    return workloads::QueueVariant::kLrscWait;
  }
  if (adapter.kind == arch::AdapterKind::kAmoOnly) {
    return workloads::QueueVariant::kLock;
  }
  return workloads::QueueVariant::kLrsc;
}

arch::SystemConfig configFor(const AdapterSpec& adapter,
                             std::uint32_t waitCapacity,
                             arch::SystemConfig base) {
  base.adapter = adapter.kind;
  base.lrscWaitQueueCapacity = (adapter.idealCapacity || waitCapacity == 0)
                                   ? base.numCores
                                   : waitCapacity;
  return base;
}

}  // namespace colibri::exp
