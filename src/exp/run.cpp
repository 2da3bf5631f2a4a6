#include "exp/run.hpp"

#include "arch/system.hpp"
#include "model/area.hpp"
#include "obs/recorder.hpp"
#include "sim/random.hpp"

namespace colibri::exp {

namespace {

/// Per-workload dispatch: run on the (already constructed) system and
/// fill the workload-dependent part of the RunResult.
struct Dispatcher {
  arch::System& sys;
  RunResult& out;

  void operator()(const workloads::HistogramParams& p) const {
    const auto r = workloads::runHistogram(sys, p);
    out.rate = r.rate;
    out.verified = r.sumVerified;
    out.opLatency = r.opLatency;
  }

  void operator()(const workloads::QueueParams& p) const {
    const auto r = workloads::runQueue(sys, p);
    out.rate = r.rate;
    out.verified = r.fifoVerified;
  }

  void operator()(const workloads::ProdConsParams& p) const {
    const auto r = workloads::runProdCons(sys, p);
    out.rate.opsPerCycle = r.itemsPerCycle;
    out.rate.opsInWindow = r.itemsInWindow;
    out.rate.counters = r.counters;
    out.verified = r.allItemsSeen;
    out.extras = {{"itemsConsumed", r.itemsConsumed},
                  {"consumerSleepFraction", r.consumerSleepFraction},
                  {"consumerRequestsPerItem", r.consumerRequestsPerItem}};
  }

  void operator()(const workloads::MatmulParams& p) const {
    const auto r = workloads::runMatmul(sys, p);
    fillMatmul(r, static_cast<std::uint32_t>(p.workers.size()));
  }

  void operator()(const workloads::InterferenceParams& p) const {
    const auto r = workloads::runInterference(sys, p);
    fillMatmul(r.matmul, static_cast<std::uint32_t>(p.matmul.workers.size() +
                                                    p.pollers.size()));
    out.extras.push_back({"pollerUpdates", r.pollerUpdates});
  }

  void operator()(const wgen::WgenParams& p) const {
    const auto r = wgen::runKernel(sys, p);
    out.rate = r.rate;
    out.verified = r.sumVerified;
    out.opLatency = r.opLatency;
  }

  void operator()(const workloads::HashTableParams& p) const {
    const auto r = workloads::runHashTable(sys, p);
    out.rate = r.rate;
    out.verified = r.verified;
    out.extras = {{"inserts", r.inserts}, {"lookups", r.lookups}};
  }

  void operator()(const workloads::WsDequeParams& p) const {
    // Completion-style like matmul: the whole run is the window and the
    // executed task count is the op count.
    const auto r = workloads::runWsDeque(sys, p);
    out.extras = {{"duration", r.duration},
                  {"steals", r.steals},
                  {"ownerPops", r.ownerPops}};
    out.verified = r.verified;
    out.rate.counters = r.counters;
    out.rate.opsInWindow = r.executed;
    out.rate.opsPerCycle = r.duration > 0
                               ? static_cast<double>(r.executed) /
                                     static_cast<double>(r.duration)
                               : 0.0;
  }

  void operator()(const workloads::LockFairParams& p) const {
    const auto r = workloads::runLockFair(sys, p);
    out.rate = r.rate;
    out.verified = r.verified;
    out.acqSpread = r.acqSpread;
    out.opLatency = r.handoff;
  }

 private:
  /// Matmul runs to completion instead of over a window; treat the whole
  /// run as the window (stats were never reset) and report MACs as ops.
  void fillMatmul(const workloads::MatmulResult& r,
                  std::uint32_t participants) const {
    out.extras = {{"duration", r.duration}, {"macs", r.macs}};
    out.verified = r.verified;
    out.rate.counters = workloads::snapshotCounters(sys, r.duration,
                                                    participants);
    out.rate.opsInWindow = r.macs;
    out.rate.opsPerCycle = r.duration > 0
                               ? static_cast<double>(r.macs) /
                                     static_cast<double>(r.duration)
                               : 0.0;
  }
};

/// The authoritative window from the spec, applied to the alternatives
/// that have one.
WorkloadParams withWindow(WorkloadParams params,
                          const workloads::MeasureWindow& window) {
  std::visit(
      [&](auto& p) {
        if constexpr (requires { p.window; }) {
          p.window = window;
        }
      },
      params);
  return params;
}

double tileAreaFor(const arch::SystemConfig& cfg) {
  switch (cfg.adapter) {
    case arch::AdapterKind::kLrscWait:
      return model::lrscWaitTileArea(cfg, cfg.lrscWaitQueueCapacity);
    case arch::AdapterKind::kColibri:
      return model::colibriTileArea(cfg, cfg.colibriQueuesPerController);
    default:
      // The AMO unit and plain LR/SC slots ship with the baseline tile.
      return model::AreaParams{}.baseTileKge;
  }
}

}  // namespace

const char* workloadNameOf(const WorkloadParams& params) {
  return std::visit(
      [](const auto& p) -> const char* {
        if constexpr (requires { p.kernel.name; }) {
          return p.kernel.name.empty() ? "wgen" : p.kernel.name.c_str();
        } else {
          return p.kName;
        }
      },
      params);
}

bool isWindowed(const WorkloadParams& params) {
  return std::visit([](const auto& p) { return requires { p.window; }; },
                    params);
}

std::optional<double> RunResult::extra(std::string_view key) const {
  for (const auto& e : extras) {
    if (key == e.key) {
      return std::visit([](auto v) { return static_cast<double>(v); },
                        e.value);
    }
  }
  return std::nullopt;
}

std::string workloadNameFor(const RunSpec& spec) {
  return spec.workload.empty() ? workloadNameOf(spec.params) : spec.workload;
}

std::uint64_t repSeed(std::uint64_t base, std::uint32_t rep) {
  if (rep == 0) {
    return base;  // single-rep runs are bit-identical to direct runs
  }
  std::uint64_t sm = base ^ (0x9e3779b97f4a7c15ULL * rep);
  return sim::splitmix64(sm);
}

RunResult runOne(const RunSpec& spec, std::uint32_t rep) {
  arch::SystemConfig cfg = spec.config;
  cfg.seed = repSeed(spec.seed, rep);
  if (rep != 0) {
    // A Recorder tracks one System; with multiple repetitions only rep 0
    // is observed (the CLI additionally restricts byte-compared sinks to
    // --reps 1).
    cfg.recorder = nullptr;
  }
  obs::Recorder* rec = cfg.recorder;

  RunResult out;
  out.label = spec.label;
  out.workload = workloadNameFor(spec);
  out.seed = cfg.seed;

  const WorkloadParams params = withWindow(spec.params, spec.window);
  arch::System sys(cfg);
  if (rec != nullptr && rec->config().sampleInterval > 0) {
    // Interval samples, scheduled up front — before any workload spawns —
    // so each one runs first among its cycle's events and observes exactly
    // the events below the sample cycle.
    const sim::Cycle step = rec->config().sampleInterval;
    const sim::Cycle horizon = spec.window.horizon();
    for (sim::Cycle t = 0;; t += step) {
      sys.at(t, [rec, &sys] { rec->sampleAt(sys.now()); });
      if (t + step > horizon) {
        break;
      }
    }
  }
  std::visit(Dispatcher{sys, out}, params);
  out.faultCounters = sys.faultCounters();
  out.faultSeed = sys.faultSeed();
  if (rec != nullptr) {
    rec->finalize(sys.now());
  }

  out.tileAreaKge = tileAreaFor(cfg);
  out.energy = model::chargeEnergy(out.rate.counters);
  out.energyPerOpPj = model::energyPerOp(out.rate.counters,
                                         out.rate.opsInWindow);
  out.averagePowerMw = model::averagePowerMw(out.rate.counters);
  return out;
}

RunResult runOne(const RunSpec& spec) { return runOne(spec, 0); }

}  // namespace colibri::exp
