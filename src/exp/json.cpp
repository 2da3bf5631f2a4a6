#include "exp/json.hpp"

#include <ostream>
#include <variant>

#include "obs/recorder.hpp"
#include "report/json.hpp"
#include "sim/check.hpp"

namespace colibri::exp {

namespace {

void writeStats(report::JsonWriter& w, const char* name, const Stats& s) {
  w.key(name).beginObject();
  w.kv("mean", s.mean)
      .kv("stddev", s.stddev)
      .kv("min", s.min)
      .kv("max", s.max)
      .kv("n", static_cast<std::uint64_t>(s.n));
  w.endObject();
}

void writeConfig(report::JsonWriter& w, const arch::SystemConfig& cfg) {
  w.key("config").beginObject();
  w.kv("adapter", arch::toString(cfg.adapter))
      .kv("cores", cfg.numCores)
      .kv("coresPerTile", cfg.coresPerTile)
      .kv("tilesPerGroup", cfg.tilesPerGroup)
      .kv("banksPerTile", cfg.banksPerTile)
      .kv("wordsPerBank", cfg.wordsPerBank)
      .kv("waitCapacity", cfg.lrscWaitQueueCapacity)
      .kv("colibriQueues", cfg.colibriQueuesPerController);
  w.endObject();
}

void writeCounters(report::JsonWriter& w,
                   const workloads::SystemCounters& c) {
  w.key("counters").beginObject();
  w.kv("instructions", c.instructions)
      .kv("computeCycles", c.computeCycles)
      .kv("sleepCycles", c.sleepCycles)
      .kv("stallCycles", c.stallCycles)
      .kv("bankAccesses", c.bankAccesses)
      .kv("windowCycles", static_cast<std::uint64_t>(c.windowCycles))
      .kv("activeCores", c.activeCores);
  w.key("netMessages").beginArray();
  for (const auto m : c.netMessages) {
    w.value(m);
  }
  w.endArray();
  w.endObject();
}

void writeRep(report::JsonWriter& w, const RunResult& r) {
  w.beginObject();
  w.kv("seed", r.seed)
      .kv("opsPerCycle", r.rate.opsPerCycle)
      .kv("opsInWindow", r.rate.opsInWindow)
      .kv("fairnessJain", r.rate.fairnessJain)
      .kv("perCoreMinRate", r.rate.perCoreMinRate)
      .kv("perCoreMaxRate", r.rate.perCoreMaxRate)
      .kv("verified", r.verified)
      .kv("tileAreaKge", r.tileAreaKge)
      .kv("energyPerOpPj", r.energyPerOpPj)
      .kv("averagePowerMw", r.averagePowerMw);
  if (r.opLatency.count > 0) {  // wgen kernels: per-op latency distribution
    w.key("opLatency").beginObject();
    w.kv("p50", r.opLatency.p50)
        .kv("p95", r.opLatency.p95)
        .kv("p99", r.opLatency.p99)
        .kv("mean", r.opLatency.mean)
        .kv("min", r.opLatency.min)
        .kv("max", r.opLatency.max)
        .kv("count", static_cast<std::uint64_t>(r.opLatency.count));
    w.endObject();
  }
  for (const auto& e : r.extras) {
    std::visit([&](auto v) { w.kv(e.key, v); }, e.value);
  }
  if (r.acqSpread.count > 0) {  // lockfair: per-core acquisition spread
    w.key("acqSpread").beginObject();
    w.kv("min", r.acqSpread.min)
        .kv("max", r.acqSpread.max)
        .kv("mean", r.acqSpread.mean)
        .kv("p50", r.acqSpread.p50)
        .kv("p95", r.acqSpread.p95)
        .kv("p99", r.acqSpread.p99);
    w.endObject();
  }
  writeCounters(w, r.rate.counters);
  if (r.faultSeed != 0) {
    // Only runs that injected faults carry the block, so documents with
    // injection off keep their bytes.
    w.key("fault").beginObject();
    w.kv("seed", r.faultSeed)
        .kv("netDelays", r.faultCounters.at(fault::Site::kNetDelay))
        .kv("scFails", r.faultCounters.at(fault::Site::kScFail))
        .kv("evictions", r.faultCounters.at(fault::Site::kEvict))
        .kv("stalls", r.faultCounters.at(fault::Site::kStall))
        .kv("injected", r.faultCounters.total());
    w.endObject();
  }
  w.endObject();
}

}  // namespace

void writeJson(std::ostream& os, const std::vector<RunSpec>& specs,
               const std::vector<SweepResult>& results) {
  writeJson(os, specs, results, JsonOptions{});
}

void writeJson(std::ostream& os, const std::vector<RunSpec>& specs,
               const std::vector<SweepResult>& results,
               const JsonOptions& opts) {
  COLIBRI_CHECK(specs.size() == results.size());
  report::JsonWriter w(os);
  w.beginObject();
  // v2 = v1 plus the optional per-rep "opLatency" block (wgen kernels),
  // the per-rep "fault" block (runs with injection on) and the opt-in
  // "timeseries" extension (JsonOptions).
  w.kv("schema", "colibri-exp-v2");
  w.key("runs").beginArray();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const auto& res = results[i];
    w.beginObject();
    w.kv("label", spec.label)
        .kv("workload", workloadNameFor(spec))
        .kv("seed", spec.seed)
        .kv("repetitions",
            static_cast<std::uint64_t>(res.reps.size()))
        .kv("warmup", static_cast<std::uint64_t>(spec.window.warmup))
        .kv("measure", static_cast<std::uint64_t>(spec.window.measure));
    writeConfig(w, spec.config);
    w.key("reps").beginArray();
    for (const auto& rep : res.reps) {
      writeRep(w, rep);
    }
    w.endArray();
    w.key("aggregate").beginObject();
    writeStats(w, "opsPerCycle", res.opsPerCycle);
    writeStats(w, "energyPerOpPj", res.energyPerOpPj);
    w.kv("allVerified", res.allVerified);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  if (opts.recorder != nullptr && opts.recorder->sampledAnything()) {
    opts.recorder->writeTimeseriesBlock(w);
  }
  w.endObject();
  os << '\n';
}

}  // namespace colibri::exp
