#include "cli/driver.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <fstream>
#include <numeric>
#include <ostream>

#include "exp/json.hpp"
#include "fault/demo.hpp"
#include "fault/fault.hpp"
#include "fault/watchdog.hpp"
#include "obs/recorder.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "litmus/harness.hpp"
#include "report/table.hpp"
#include "sim/check.hpp"
#include "wgen/presets.hpp"

namespace colibri::cli {
namespace {

workloads::MeasureWindow windowOf(const Options& opts) {
  return workloads::MeasureWindow{opts.warmup, opts.measure};
}

void emit(const report::Table& table, std::ostream& out, bool csv) {
  if (csv) {
    table.printCsv(out);
  } else {
    table.print(out);
  }
}

/// In CSV/JSON mode the output must stay machine-clean: no banner line.
void maybeBanner(std::ostream& out, const Options& opts,
                 const std::string& title) {
  if (!opts.csv && !opts.json) {
    report::banner(out, title);
  }
}

std::string faultProfileList() {
  std::string names;
  for (const auto& p : fault::profiles()) {
    if (!names.empty()) {
      names += " | ";
    }
    names += p.name;
  }
  return names + " | off";
}

template <typename T>
bool parseChars(const std::string& text, T& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

/// Parse a per-site fault overlay: "P" (probability alone) or "P,MAX"
/// (probability plus magnitude). `max` == nullptr means the site has no
/// magnitude and the ",MAX" form is rejected.
std::optional<std::string> parseFaultSite(const char* flag,
                                          const std::string& text, double& p,
                                          std::uint32_t* max) {
  std::string probText = text;
  if (const auto comma = text.find(','); comma != std::string::npos) {
    if (max == nullptr) {
      return std::string(flag) + " takes a bare probability, got '" + text +
             "'";
    }
    probText = text.substr(0, comma);
    if (!parseChars(text.substr(comma + 1), *max) || *max < 1) {
      return std::string(flag) + ": MAX in '" + text +
             "' must be an integer >= 1";
    }
  }
  if (!parseChars(probText, p) || p < 0.0 || p > 1.0) {
    return std::string(flag) + ": probability in '" + text +
           "' must be in [0, 1]";
  }
  if (max != nullptr && p > 0.0 && *max < 1) {
    return std::string(flag) + " needs a ',MAX' magnitude (e.g. 0.1,8)";
  }
  return std::nullopt;
}

/// Apply --fault/--fault-* flags onto cfg.fault (profile first, then the
/// per-site overlays) and --watchdog onto cfg.watchdogCycles.
std::optional<std::string> applyFaultFlags(const Options& opts,
                                           arch::SystemConfig& cfg) {
  if (opts.faultProfile != "off") {
    const fault::Profile* p = fault::findProfile(opts.faultProfile);
    if (p == nullptr) {
      return "unknown fault profile '" + opts.faultProfile +
             "' (choose from: " + faultProfileList() + ")";
    }
    cfg.fault = p->config;
  }
  cfg.fault.seed = opts.faultSeed;
  if (!opts.faultNetDelay.empty()) {
    if (auto e = parseFaultSite("--fault-net-delay", opts.faultNetDelay,
                                cfg.fault.netDelayP, &cfg.fault.netDelayMax)) {
      return e;
    }
  }
  if (!opts.faultScFail.empty()) {
    if (auto e = parseFaultSite("--fault-sc-fail", opts.faultScFail,
                                cfg.fault.scFailP, nullptr)) {
      return e;
    }
  }
  if (!opts.faultEvict.empty()) {
    if (auto e = parseFaultSite("--fault-evict", opts.faultEvict,
                                cfg.fault.evictP, nullptr)) {
      return e;
    }
  }
  if (!opts.faultStall.empty()) {
    if (auto e = parseFaultSite("--fault-stall", opts.faultStall,
                                cfg.fault.stallP, &cfg.fault.stallMax)) {
      return e;
    }
  }
  cfg.watchdogCycles = opts.watchdog;
  return std::nullopt;
}

double sleepFraction(const workloads::SystemCounters& c) {
  const double total =
      static_cast<double>(c.windowCycles) * static_cast<double>(c.activeCores);
  return total > 0.0 ? static_cast<double>(c.sleepCycles) / total : 0.0;
}

/// Translate Options into the declarative RunSpec the exp layer executes.
/// The scenario registry already vetted the names; nullopt means a
/// workload is registered but has no dispatch here (internal error).
std::optional<exp::RunSpec> buildSpec(const Options& opts,
                                      const exp::AdapterSpec& adapter,
                                      const arch::SystemConfig& cfg) {
  exp::RunSpec spec;
  spec.label = opts.adapter + "/" + opts.workload;
  spec.workload = opts.workload;
  spec.config = cfg;
  spec.window = windowOf(opts);
  spec.seed = opts.seed;
  spec.repetitions = opts.reps;

  const auto backoff = sync::BackoffPolicy::fixed(opts.backoffCycles);
  if (opts.workload == "histogram") {
    workloads::HistogramParams p;
    p.bins = opts.bins;
    p.mode = exp::histogramModeFor(adapter);
    p.backoff = backoff;
    spec.params = p;
  } else if (opts.workload == "msqueue" || opts.workload == "ticket_queue") {
    workloads::QueueParams p;
    p.variant = opts.workload == "ticket_queue"
                    ? workloads::QueueVariant::kLock
                    : exp::queueVariantFor(adapter);
    p.capacity = opts.queueCapacity;
    p.backoff = backoff;
    spec.params = p;
  } else if (opts.workload == "prodcons") {
    workloads::ProdConsParams p;
    p.producers = opts.producers;
    p.consumers = opts.consumers;
    p.useMwait = adapter.waitCapable;
    p.backoff = backoff;
    spec.params = p;
  } else if (opts.workload == "matmul") {
    workloads::MatmulParams p;
    p.n = opts.matmulN;
    p.workers.resize(opts.cores);
    std::iota(p.workers.begin(), p.workers.end(), 0);
    spec.params = p;
  } else if (opts.workload == "hashtable") {
    workloads::HashTableParams p;
    p.slots = opts.htSlots;
    p.keysPerCore = opts.htKeys;
    p.backoff = backoff;
    spec.params = p;
  } else if (opts.workload == "wsdeque") {
    workloads::WsDequeParams p;
    p.tasks = opts.wsdTasks;
    p.taskCycles = opts.taskCycles;
    // Keep the workload's exponential default: a fixed --backoff livelocks
    // the top-word CAS storm on the single-slot LR/SC adapter.
    spec.params = p;
  } else if (opts.workload == "lockfair") {
    workloads::LockFairParams p;
    p.csCycles = opts.csCycles;
    p.backoff = backoff;
    spec.params = p;
  } else if (const auto* preset = wgen::findPreset(opts.workload)) {
    wgen::WgenParams p;
    p.kernel = preset->spec;
    p.backoff = backoff;
    for (auto& region : p.kernel.regions) {
      if (opts.zipfTheta >= 0.0) {
        region.zipfTheta = opts.zipfTheta;
      }
      if (opts.hotFraction >= 0.0) {
        region.hotFraction = opts.hotFraction;
      }
      if (opts.wgenWords != 0 && region.dist != wgen::AddrDist::kStrided) {
        region.range = opts.wgenWords;
      }
    }
    spec.params = p;
  } else {
    return std::nullopt;
  }
  return spec;
}

/// The columns shared by the rate-based workloads (histogram, queues);
/// the rate column shows the mean across reps (== the single measurement
/// for --reps 1, keeping the documented output stable).
std::vector<std::string> rateHeaders() {
  return {"adapter", "workload", "cores",  "ops/cycle",
          "ops",     "jain",     "sleep%", "verified"};
}

std::vector<std::string> rateRow(const Options& opts,
                                 const exp::SweepResult& res) {
  const auto& r = res.primary();
  return {opts.adapter,
          opts.workload,
          std::to_string(opts.cores),
          report::fmt(res.opsPerCycle.mean, 4),
          std::to_string(r.rate.opsInWindow),
          report::fmt(r.rate.fairnessJain, 3),
          report::fmtPercent(100.0 * sleepFraction(r.rate.counters)),
          res.allVerified ? "yes" : "NO"};
}

/// With --reps N > 1 every table gains the aggregate columns; the rate
/// column always shows the mean across reps (identical to the single
/// measurement for N = 1, keeping the documented output stable).
void appendAggregate(std::vector<std::string>& headers,
                     std::vector<std::string>& row, const Options& opts,
                     const exp::SweepResult& res) {
  if (opts.reps <= 1) {
    return;
  }
  headers.insert(headers.end(), {"reps", "stddev", "min", "max"});
  row.push_back(std::to_string(res.reps.size()));
  row.push_back(report::fmt(res.opsPerCycle.stddev, 4));
  row.push_back(report::fmt(res.opsPerCycle.min, 4));
  row.push_back(report::fmt(res.opsPerCycle.max, 4));
}

void printHistogram(const Options& opts, const exp::RunSpec& spec,
                    const exp::SweepResult& res, std::ostream& out) {
  const auto& p = std::get<workloads::HistogramParams>(spec.params);
  maybeBanner(out, opts, "colibri-sim: histogram (" +
                             std::string(workloads::toString(p.mode)) + ", " +
                             std::to_string(opts.bins) + " bins) on " +
                             opts.adapter);
  auto headers = rateHeaders();
  headers.insert(headers.begin() + 3, "bins");
  auto row = rateRow(opts, res);
  row.insert(row.begin() + 3, std::to_string(opts.bins));
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printQueue(const Options& opts, const exp::RunSpec& spec,
                const exp::SweepResult& res, std::ostream& out) {
  const auto& p = std::get<workloads::QueueParams>(spec.params);
  maybeBanner(out, opts, "colibri-sim: " + opts.workload + " (" +
                             std::string(workloads::toString(p.variant)) +
                             ") on " + opts.adapter);
  auto headers = rateHeaders();
  auto row = rateRow(opts, res);
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printProdCons(const Options& opts, const exp::RunSpec& spec,
                   const exp::SweepResult& res, std::ostream& out) {
  const auto& p = std::get<workloads::ProdConsParams>(spec.params);
  const auto& r = res.primary();
  maybeBanner(out, opts, "colibri-sim: prodcons (" +
                             std::string(p.useMwait ? "Mwait" : "polling") +
                             " consumers) on " + opts.adapter);
  std::vector<std::string> headers{"adapter",     "producers", "consumers",
                                   "items/cycle", "items",     "sleep%",
                                   "reqs/item",   "verified"};
  std::vector<std::string> row{
      opts.adapter,
      std::to_string(opts.producers),
      std::to_string(opts.consumers),
      report::fmt(res.opsPerCycle.mean, 4),
      std::to_string(r.itemsConsumed),
      report::fmtPercent(100.0 * r.consumerSleepFraction),
      report::fmt(r.consumerRequestsPerItem, 2),
      res.allVerified ? "yes" : "NO"};
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printWgen(const Options& opts, const exp::SweepResult& res,
               std::ostream& out) {
  const auto& r = res.primary();
  maybeBanner(out, opts, "colibri-sim: wgen preset '" + opts.workload +
                             "' on " + opts.adapter);
  std::vector<std::string> headers{
      "adapter", "workload", "cores",   "ops/cycle", "ops",     "jain",
      "lat-p50", "lat-p95",  "lat-p99", "sleep%",    "verified"};
  std::vector<std::string> row{
      opts.adapter,
      opts.workload,
      std::to_string(opts.cores),
      report::fmt(res.opsPerCycle.mean, 4),
      std::to_string(r.rate.opsInWindow),
      report::fmt(r.rate.fairnessJain, 3),
      report::fmt(r.opLatency.p50, 1),
      report::fmt(r.opLatency.p95, 1),
      report::fmt(r.opLatency.p99, 1),
      report::fmtPercent(100.0 * sleepFraction(r.rate.counters)),
      res.allVerified ? "yes" : "NO"};
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printMatmul(const Options& opts, const exp::SweepResult& res,
                 std::ostream& out) {
  const auto& r = res.primary();
  maybeBanner(out, opts,
              "colibri-sim: matmul (n=" + std::to_string(opts.matmulN) +
                  ") on " + opts.adapter);
  std::vector<std::string> headers{"adapter", "workers",    "n",
                                   "cycles",  "macs",       "macs/cycle",
                                   "verified"};
  std::vector<std::string> row{opts.adapter,
                               std::to_string(opts.cores),
                               std::to_string(opts.matmulN),
                               std::to_string(r.duration),
                               std::to_string(r.macs),
                               report::fmt(res.opsPerCycle.mean, 2),
                               res.allVerified ? "yes" : "NO"};
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printHashTable(const Options& opts, const exp::SweepResult& res,
                    std::ostream& out) {
  const auto& r = res.primary();
  maybeBanner(out, opts, "colibri-sim: hashtable (lock-free linear "
                         "probing) on " + opts.adapter);
  auto headers = rateHeaders();
  headers.insert(headers.begin() + 3, {"inserts", "lookups"});
  auto row = rateRow(opts, res);
  row.insert(row.begin() + 3, {std::to_string(r.inserts),
                               std::to_string(r.lookups)});
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printWsDeque(const Options& opts, const exp::SweepResult& res,
                  std::ostream& out) {
  const auto& r = res.primary();
  maybeBanner(out, opts, "colibri-sim: wsdeque (Chase-Lev work stealing) "
                         "on " + opts.adapter);
  std::vector<std::string> headers{"adapter", "cores",       "tasks",
                                   "cycles",  "owner-pops",  "steals",
                                   "tasks/cycle", "verified"};
  std::vector<std::string> row{opts.adapter,
                               std::to_string(opts.cores),
                               std::to_string(r.rate.opsInWindow),
                               std::to_string(r.duration),
                               std::to_string(r.ownerPops),
                               std::to_string(r.steals),
                               report::fmt(res.opsPerCycle.mean, 4),
                               res.allVerified ? "yes" : "NO"};
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

void printLockFair(const Options& opts, const exp::SweepResult& res,
                   std::ostream& out) {
  const auto& r = res.primary();
  maybeBanner(out, opts,
              "colibri-sim: lockfair (TAS handoff/fairness) on " +
                  opts.adapter);
  std::vector<std::string> headers{
      "adapter",  "cores",    "acq/cycle", "acqs",     "jain",
      "acq-min",  "acq-max",  "wait-p50",  "wait-p99", "verified"};
  std::vector<std::string> row{
      opts.adapter,
      std::to_string(opts.cores),
      report::fmt(res.opsPerCycle.mean, 4),
      std::to_string(r.rate.opsInWindow),
      report::fmt(r.rate.fairnessJain, 3),
      report::fmt(r.acqSpread.min, 0),
      report::fmt(r.acqSpread.max, 0),
      report::fmt(r.opLatency.p50, 1),
      report::fmt(r.opLatency.p99, 1),
      res.allVerified ? "yes" : "NO"};
  appendAggregate(headers, row, opts, res);
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
}

/// --hang-demo: run the shared stranded-LR scenario (fault::runStrandedLr)
/// and let the watchdog diagnose it. Exit 3 on a trip — the same code a
/// real diagnosed hang produces — so scripts can tell "caught" apart from
/// "ran silently" (0, watchdog disabled) and "hung past the horizon
/// without a diagnosis" (1).
int runHangDemo(const Options& opts, std::ostream& out, std::ostream& err) {
  const auto adapter = exp::findAdapter("lrsc_single");
  arch::SystemConfig cfg;
  if (const auto geomError = buildConfig(opts, *adapter, cfg)) {
    err << "colibri-sim: " << *geomError << "\n";
    return 2;
  }
  maybeBanner(out, opts,
              "colibri-sim: stranded-LR hang demo (lrsc_single, watchdog " +
                  (cfg.watchdogCycles > 0
                       ? std::to_string(cfg.watchdogCycles) + " cycles"
                       : std::string("off")) +
                  ")");
  // A trip is bounded by limit + limit/8; double the limit is a safely
  // bounded horizon. With the watchdog off, stop at the normal window end.
  const sim::Cycle horizon = cfg.watchdogCycles > 0
                                 ? 2 * cfg.watchdogCycles
                                 : opts.warmup + opts.measure;
  try {
    fault::runStrandedLr(cfg, horizon);
  } catch (const fault::WatchdogError& e) {
    err << "colibri-sim: " << e.what();
    out << "watchdog caught the hang at cycle " << e.trippedAt()
        << " (limit " << cfg.watchdogCycles << ")\n";
    return 3;
  } catch (const sim::InvariantViolation& e) {
    err << "colibri-sim: simulation invariant violated: " << e.what() << "\n";
    return 1;
  }
  if (cfg.watchdogCycles == 0) {
    out << "hang ran silently to cycle " << horizon
        << " (watchdog disabled — this is the failure mode the watchdog "
           "exists for)\n";
    return 0;
  }
  out << "no watchdog trip by cycle " << horizon << " (unexpected)\n";
  return 1;
}

std::string litmusAlgorithmList() {
  std::string names;
  for (const auto& info : litmus::algorithms()) {
    if (!names.empty()) {
      names += " | ";
    }
    names += info.name;
  }
  return names + " | all";
}

int runLitmusMode(const Options& opts, std::ostream& out, std::ostream& err) {
  std::vector<const litmus::AlgorithmInfo*> algos;
  if (opts.litmus == "all" || opts.litmus.empty()) {
    for (const auto& info : litmus::algorithms()) {
      algos.push_back(&info);
    }
  } else if (const auto* info = litmus::findAlgorithm(opts.litmus)) {
    algos.push_back(info);
  } else {
    err << "colibri-sim: unknown litmus algorithm '" << opts.litmus
        << "' (choose from: " << litmusAlgorithmList() << ")\n";
    return 2;
  }
  std::vector<exp::AdapterSpec> adapterSpecs;
  if (opts.litmusMatrix) {
    adapterSpecs = exp::adapters();
  } else {
    const auto adapter = exp::findAdapter(opts.adapter);
    if (!adapter) {
      err << "colibri-sim: unknown adapter '" << opts.adapter
          << "' (choose from: " << exp::adapterNameList() << ")\n";
      return 2;
    }
    adapterSpecs.push_back(*adapter);
  }
  if (opts.litmusIters == 0) {
    err << "colibri-sim: --litmus-iters must be >= 1\n";
    return 2;
  }
  if (opts.json) {
    err << "colibri-sim: litmus mode has no --json output (use --csv)\n";
    return 2;
  }
  if (!opts.metricsCsv.empty() || !opts.trace.empty()) {
    err << "colibri-sim: litmus mode has no observability sinks "
           "(--metrics-csv/--trace)\n";
    return 2;
  }

  std::vector<litmus::MatrixCase> cases;
  for (const auto& adapter : adapterSpecs) {
    arch::SystemConfig cfg;
    if (const auto geomError = buildConfig(opts, adapter, cfg)) {
      err << "colibri-sim: " << *geomError << "\n";
      return 2;
    }
    for (const auto* info : algos) {
      litmus::MatrixCase c;
      c.adapter = adapter;
      c.config = cfg;
      c.params.algo = info->algo;
      c.params.iterations = opts.litmusIters;
      c.params.fenced = !opts.unfenced;
      c.params.backoff = sync::BackoffPolicy::fixed(opts.backoffCycles);
      auto n = opts.contenders != 0 ? opts.contenders
                                    : info->defaultContenders;
      n = std::min(n, std::min(info->maxContenders, cfg.numCores));
      if (n < info->minContenders) {
        err << "colibri-sim: litmus '" << info->name << "' needs at least "
            << info->minContenders << " contending cores\n";
        return 2;
      }
      c.params.contenders = n;
      cases.push_back(std::move(c));
    }
  }

  try {
    const auto results = litmus::runMatrix(cases, opts.threads);
    maybeBanner(out, opts,
                "colibri-sim: litmus (" +
                    std::string(opts.unfenced ? "unfenced" : "fenced") +
                    " protocol stores)");
    report::Table table({"adapter", "algorithm", "contenders", "entries",
                         "expected", "overlap", "lost", "progress",
                         "result"});
    bool allPass = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      const auto& info = litmus::infoFor(cases[i].params.algo);
      const bool ok = litmus::passes(info, r);
      allPass = allPass && ok;
      const char* verdict =
          ok ? (info.expectExclusion ? "PASS" : "PASS (caught)") : "FAIL";
      table.addRow({r.adapter, r.algorithm, std::to_string(r.contenders),
                    std::to_string(r.entries),
                    std::to_string(r.expectedEntries),
                    std::to_string(r.exclusionViolations),
                    std::to_string(r.lostUpdates),
                    r.progressOk ? "yes" : "NO", verdict});
    }
    emit(table, out, opts.csv);
    return allPass ? 0 : 1;
  } catch (const fault::WatchdogError& e) {
    err << "colibri-sim: " << e.what();
    return 3;
  } catch (const sim::InvariantViolation& e) {
    err << "colibri-sim: simulation invariant violated: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "colibri-sim: error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

std::optional<std::string> buildConfig(const Options& opts,
                                       const exp::AdapterSpec& adapter,
                                       arch::SystemConfig& cfg) {
  arch::SystemConfig base;
  base.numCores = opts.cores;
  base.coresPerTile = opts.coresPerTile;
  base.tilesPerGroup = opts.tilesPerGroup;
  base.banksPerTile = opts.banksPerTile;
  base.wordsPerBank = opts.wordsPerBank;
  base.colibriQueuesPerController = opts.colibriQueues;
  base.seed = opts.seed;
  cfg = exp::configFor(adapter, opts.waitCapacity, base);

  if (opts.cores == 0 || opts.coresPerTile == 0 || opts.tilesPerGroup == 0 ||
      opts.banksPerTile == 0 || opts.wordsPerBank == 0) {
    return "geometry values must be >= 1";
  }
  if (opts.colibriQueues == 0) {
    return "--colibri-queues must be >= 1";
  }
  if (opts.cores % opts.coresPerTile != 0) {
    return "--cores (" + std::to_string(opts.cores) +
           ") must be a multiple of --cores-per-tile (" +
           std::to_string(opts.coresPerTile) + ")";
  }
  if (cfg.numTiles() % opts.tilesPerGroup != 0) {
    return "tile count (" + std::to_string(cfg.numTiles()) +
           ") must be a multiple of --tiles-per-group (" +
           std::to_string(opts.tilesPerGroup) + ")";
  }
  if (auto faultError = applyFaultFlags(opts, cfg)) {
    return faultError;
  }
  return std::nullopt;
}

void printScenarios(std::ostream& os, bool csv) {
  report::Table table({"adapter", "workload", "supported", "description"});
  for (const auto& s : exp::allScenarios()) {
    table.addRow({s.adapter.name, s.workload.name,
                  s.supported ? "yes" : "no",
                  s.adapter.description + " | " + s.workload.description});
  }
  if (csv) {
    table.printCsv(os);
  } else {
    report::banner(os, "colibri-sim scenarios (adapter x workload)");
    table.print(os);
  }
}

int runScenario(const Options& opts, std::ostream& out, std::ostream& err) {
  if (opts.hangDemo) {
    return runHangDemo(opts, out, err);
  }
  if (!opts.litmus.empty() || opts.litmusMatrix) {
    return runLitmusMode(opts, out, err);
  }
  const auto adapter = exp::findAdapter(opts.adapter);
  if (!adapter) {
    err << "colibri-sim: unknown adapter '" << opts.adapter
        << "' (choose from: " << exp::adapterNameList() << ")\n";
    return 2;
  }
  const auto workload = exp::findWorkload(opts.workload);
  if (!workload) {
    err << "colibri-sim: unknown workload '" << opts.workload
        << "' (choose from: " << exp::workloadNameList() << ")\n";
    return 2;
  }
  const auto scenario = exp::findScenario(opts.adapter, opts.workload);
  if (scenario && !scenario->supported) {
    err << "colibri-sim: scenario " << opts.adapter << " x " << opts.workload
        << " is not runnable (" << scenario->whyUnsupported << "); see "
           "--list\n";
    return 2;
  }

  arch::SystemConfig cfg;
  if (const auto geomError = buildConfig(opts, *adapter, cfg)) {
    err << "colibri-sim: " << *geomError << "\n";
    return 2;
  }

  // Friendly flag errors for knobs the workloads would otherwise reject
  // with a raw invariant trace.
  if (opts.workload == "histogram" && opts.bins == 0) {
    err << "colibri-sim: --bins must be >= 1\n";
    return 2;
  }
  if (opts.workload == "matmul" && opts.matmulN == 0) {
    err << "colibri-sim: --matmul-n must be >= 1\n";
    return 2;
  }
  if (opts.workload == "wsdeque" && opts.cores < 2) {
    err << "colibri-sim: wsdeque needs --cores >= 2 (an owner and a "
           "thief)\n";
    return 2;
  }
  if (opts.workload == "prodcons" &&
      (opts.producers == 0 || opts.consumers == 0)) {
    err << "colibri-sim: --producers and --consumers must be >= 1\n";
    return 2;
  }
  if (opts.workload == "prodcons" &&
      opts.producers + opts.consumers > opts.cores) {
    err << "colibri-sim: --producers + --consumers (" << opts.producers
        << " + " << opts.consumers << ") exceeds --cores (" << opts.cores
        << ")\n";
    return 2;
  }
  if (opts.reps == 0) {
    err << "colibri-sim: --reps must be >= 1\n";
    return 2;
  }
  if (opts.measure == 0 && opts.workload != "matmul" &&
      opts.workload != "wsdeque") {
    // Windowed workloads report rates over the measurement window; an
    // empty window would print 0 ops/cycle as a verified result. (matmul
    // and wsdeque run to completion and ignore the window.)
    err << "colibri-sim: --measure must be >= 1 for workload '"
        << opts.workload << "'\n";
    return 2;
  }
  if (opts.workload == "msqueue" && opts.queueCapacity == 1 &&
      exp::queueVariantFor(*adapter) != workloads::QueueVariant::kLock) {
    // The ticket queue cannot tell a full slot from a free one at capacity
    // 1 (see TicketQueue::create); the lock-based variant can.
    err << "colibri-sim: --queue-capacity must be >= 2 for msqueue on "
           "adapter '"
        << opts.adapter << "'\n";
    return 2;
  }
  if (opts.hotFraction > 1.0) {
    err << "colibri-sim: --hot-fraction must be <= 1\n";
    return 2;
  }
  if (opts.csv && opts.json) {
    err << "colibri-sim: choose one of --csv and --json\n";
    return 2;
  }
  const bool wantSampling = !opts.metricsCsv.empty();
  const bool wantTrace = !opts.trace.empty();
  if ((wantSampling || wantTrace) && opts.reps > 1) {
    // The Recorder observes only rep 0, so a sink written under --reps N
    // would describe one run of N; the byte-compared sinks require exactly
    // one.
    err << "colibri-sim: --metrics-csv/--trace require --reps 1\n";
    return 2;
  }
  if (opts.traceSample == 0) {
    err << "colibri-sim: --trace-sample must be >= 1\n";
    return 2;
  }
  if (opts.jsonFault && !opts.json) {
    err << "colibri-sim: --json-fault requires --json\n";
    return 2;
  }

  auto spec = buildSpec(opts, *adapter, cfg);
  if (!spec) {
    err << "colibri-sim: workload '" << opts.workload
        << "' is registered but has no runner (internal error)\n";
    return 1;
  }

  // One recorder for the whole scenario. Attaching it (sinks or --stats)
  // must not change any machine output: the sampler events are pure reads
  // scheduled before the workload spawns, so stdout stays byte-identical
  // to a run without it.
  obs::Recorder::Config recCfg;
  recCfg.sampleInterval =
      wantSampling
          ? (opts.metricsInterval > 0 ? opts.metricsInterval : 1000)
          : 0;
  recCfg.traceEnabled = wantTrace;
  recCfg.traceEvery = opts.traceSample;
  obs::Recorder recorder(recCfg);
  if (wantSampling || wantTrace || opts.stats) {
    spec->config.recorder = &recorder;
  }

  try {
    const std::vector<exp::RunSpec> specs = {*std::move(spec)};
    exp::SweepRunner runner(opts.threads);
    const auto results = runner.run(specs);
    const auto& res = results.front();

    if (opts.json) {
      exp::JsonOptions jsonOpts;
      jsonOpts.recorder = wantSampling ? &recorder : nullptr;
      jsonOpts.faultBlock = opts.jsonFault;
      exp::writeJson(out, specs, results, jsonOpts);
    } else if (opts.workload == "histogram") {
      printHistogram(opts, specs.front(), res, out);
    } else if (opts.workload == "msqueue" ||
               opts.workload == "ticket_queue") {
      printQueue(opts, specs.front(), res, out);
    } else if (opts.workload == "prodcons") {
      printProdCons(opts, specs.front(), res, out);
    } else if (opts.workload == "hashtable") {
      printHashTable(opts, res, out);
    } else if (opts.workload == "wsdeque") {
      printWsDeque(opts, res, out);
    } else if (opts.workload == "lockfair") {
      printLockFair(opts, res, out);
    } else if (wgen::findPreset(opts.workload) != nullptr) {
      printWgen(opts, res, out);
    } else {
      printMatmul(opts, res, out);
    }
    if (!opts.metricsCsv.empty()) {
      std::ofstream f(opts.metricsCsv, std::ios::binary);
      if (!f) {
        err << "colibri-sim: cannot open --metrics-csv file '"
            << opts.metricsCsv << "'\n";
        return 1;
      }
      recorder.writeMetricsCsv(f);
    }
    if (!opts.trace.empty()) {
      std::ofstream f(opts.trace, std::ios::binary);
      if (!f) {
        err << "colibri-sim: cannot open --trace file '" << opts.trace
            << "'\n";
        return 1;
      }
      recorder.writeChromeTrace(f);
    }
    if (opts.stats) {
      // Every registry metric of rep 0, on stderr so stdout stays
      // byte-identical with and without --stats (golden corpus, CI gates).
      recorder.printStats(err);
    }
    return res.allVerified ? 0 : 1;
  } catch (const fault::WatchdogError& e) {
    // A diagnosed hang: the blame report is inside what(). Exit 3 keeps it
    // distinguishable from verification failures (1) and flag errors (2).
    err << "colibri-sim: " << e.what();
    return 3;
  } catch (const sim::InvariantViolation& e) {
    err << "colibri-sim: simulation invariant violated: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "colibri-sim: error: " << e.what() << "\n";
    return 1;
  }
}

int runMain(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  const auto parsed = parseArgs(args);
  if (!parsed.ok()) {
    err << "colibri-sim: " << *parsed.error << "\n";
    return 2;
  }
  if (parsed.options.help) {
    printUsage(out);
    return 0;
  }
  if (parsed.options.listScenarios) {
    printScenarios(out, parsed.options.csv);
    return 0;
  }
  return runScenario(parsed.options, out, err);
}

}  // namespace colibri::cli
