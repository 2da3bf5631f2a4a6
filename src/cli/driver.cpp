#include "cli/driver.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "exp/json.hpp"
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

/// What a table cell is formatted from: the options, the aggregate over
/// reps, and rep 0's result.
struct Row {
  const Options& opts;
  const exp::SweepResult& res;
  const exp::RunResult& rep;
};
using Cell = std::string (*)(const Row&);

std::string countCell(const Row& r, std::string_view key) {
  return std::to_string(static_cast<std::uint64_t>(r.rep.extra(key).value()));
}

/// Every column a workload table can show, keyed by its header, so each
/// column is formatted in one place. The rate columns show the mean
/// across reps (the single measurement for --reps 1).
const std::map<std::string_view, Cell>& cells() {
  constexpr Cell kRate = [](const Row& r) {
    return report::fmt(r.res.opsPerCycle.mean, 4);
  };
  constexpr Cell kOps = [](const Row& r) {
    return std::to_string(r.rep.rate.opsInWindow);
  };
  constexpr Cell kCores = [](const Row& r) {
    return std::to_string(r.opts.cores);
  };
  constexpr Cell kP50 = [](const Row& r) {
    return report::fmt(r.rep.opLatency.p50, 1);
  };
  constexpr Cell kP99 = [](const Row& r) {
    return report::fmt(r.rep.opLatency.p99, 1);
  };
  static const std::map<std::string_view, Cell> table = {
      {"adapter", [](const Row& r) { return r.opts.adapter; }},
      {"workload", [](const Row& r) { return r.opts.workload; }},
      {"cores", kCores},
      {"workers", kCores},
      {"bins", [](const Row& r) { return std::to_string(r.opts.bins); }},
      {"producers",
       [](const Row& r) { return std::to_string(r.opts.producers); }},
      {"consumers",
       [](const Row& r) { return std::to_string(r.opts.consumers); }},
      {"n", [](const Row& r) { return std::to_string(r.opts.matmulN); }},
      {"ops/cycle", kRate},
      {"items/cycle", kRate},
      {"tasks/cycle", kRate},
      {"acq/cycle", kRate},
      {"macs/cycle",
       [](const Row& r) { return report::fmt(r.res.opsPerCycle.mean, 2); }},
      {"ops", kOps},
      {"tasks", kOps},
      {"acqs", kOps},
      {"items", [](const Row& r) { return countCell(r, "itemsConsumed"); }},
      {"macs", [](const Row& r) { return countCell(r, "macs"); }},
      {"cycles", [](const Row& r) { return countCell(r, "duration"); }},
      {"inserts", [](const Row& r) { return countCell(r, "inserts"); }},
      {"lookups", [](const Row& r) { return countCell(r, "lookups"); }},
      {"owner-pops", [](const Row& r) { return countCell(r, "ownerPops"); }},
      {"steals", [](const Row& r) { return countCell(r, "steals"); }},
      {"jain",
       [](const Row& r) { return report::fmt(r.rep.rate.fairnessJain, 3); }},
      // prodcons reports the share of its consumers' cycles spent asleep;
      // the other workloads the share of all active core-cycles.
      {"sleep%",
       [](const Row& r) {
         return report::fmtPercent(
             100.0 * r.rep.extra("consumerSleepFraction")
                         .value_or(sleepFraction(r.rep.rate.counters)));
       }},
      {"reqs/item",
       [](const Row& r) {
         return report::fmt(r.rep.extra("consumerRequestsPerItem").value(), 2);
       }},
      {"lat-p50", kP50},
      {"lat-p95",
       [](const Row& r) { return report::fmt(r.rep.opLatency.p95, 1); }},
      {"lat-p99", kP99},
      {"wait-p50", kP50},
      {"wait-p99", kP99},
      {"acq-min",
       [](const Row& r) { return report::fmt(r.rep.acqSpread.min, 0); }},
      {"acq-max",
       [](const Row& r) { return report::fmt(r.rep.acqSpread.max, 0); }},
      {"verified",
       [](const Row& r) {
         return std::string(r.res.allVerified ? "yes" : "NO");
       }},
  };
  return table;
}

using Error = std::optional<std::string>;

/// One CLI workload family: how Options become its params, which knob
/// values it rejects up front, and how its result table looks.
struct WorkloadEntry {
  /// Registry name; nullptr matches every wgen preset.
  const char* name;
  /// The banner between "colibri-sim: " and " on <adapter>".
  std::string (*title)(const exp::RunSpec&);
  exp::WorkloadParams (*params)(const Options&, const exp::AdapterSpec&);
  /// A usage error for knobs the workload would otherwise reject with a
  /// raw invariant trace; nullptr when it has none.
  Error (*check)(const Options&, const exp::AdapterSpec&);
  /// Header names, each a key of cells().
  std::vector<std::string_view> columns;
};

workloads::QueueParams queueParams(const Options& opts,
                                   workloads::QueueVariant variant) {
  workloads::QueueParams p;
  p.variant = variant;
  p.capacity = opts.queueCapacity;
  p.backoff = sync::BackoffPolicy::fixed(opts.backoffCycles);
  return p;
}

std::string queueTitle(const exp::RunSpec& s) {
  const auto& p = std::get<workloads::QueueParams>(s.params);
  return s.workload + " (" + workloads::toString(p.variant) + ")";
}

const std::vector<WorkloadEntry>& workloadTable() {
  using Adapter = exp::AdapterSpec;
  static const std::vector<WorkloadEntry> table = {
      {"histogram",
       [](const exp::RunSpec& s) {
         const auto& p = std::get<workloads::HistogramParams>(s.params);
         const auto flavor = workloads::rmwFlavorFor(s.config.adapter);
         return "histogram (" + std::string(sync::toString(flavor)) + ", " +
                std::to_string(p.bins) + " bins)";
       },
       [](const Options& o, const Adapter& a) -> exp::WorkloadParams {
         workloads::HistogramParams p;
         p.bins = o.bins;
         p.mode = exp::histogramModeFor(a);
         p.backoff = sync::BackoffPolicy::fixed(o.backoffCycles);
         return p;
       },
       [](const Options& o, const Adapter&) {
         return o.bins == 0 ? Error("--bins must be >= 1") : std::nullopt;
       },
       {"adapter", "workload", "cores", "bins", "ops/cycle", "ops", "jain",
        "sleep%", "verified"}},
      {"msqueue", queueTitle,
       [](const Options& o, const Adapter& a) -> exp::WorkloadParams {
         return queueParams(o, exp::queueVariantFor(a));
       },
       [](const Options& o, const Adapter& a) -> Error {
         // The ticket queue cannot tell a full slot from a free one at
         // capacity 1 (see TicketQueue::create); the lock-based variant can.
         if (o.queueCapacity == 1 &&
             exp::queueVariantFor(a) != workloads::QueueVariant::kLock) {
           return "--queue-capacity must be >= 2 for msqueue on adapter '" +
                  o.adapter + "'";
         }
         return std::nullopt;
       },
       {"adapter", "workload", "cores", "ops/cycle", "ops", "jain", "sleep%",
        "verified"}},
      {"ticket_queue", queueTitle,
       [](const Options& o, const Adapter&) -> exp::WorkloadParams {
         return queueParams(o, workloads::QueueVariant::kLock);
       },
       nullptr,
       {"adapter", "workload", "cores", "ops/cycle", "ops", "jain", "sleep%",
        "verified"}},
      {"prodcons",
       [](const exp::RunSpec& s) {
         const auto& p = std::get<workloads::ProdConsParams>(s.params);
         return std::string("prodcons (") + (p.useMwait ? "Mwait" : "polling") +
                " consumers)";
       },
       [](const Options& o, const Adapter& a) -> exp::WorkloadParams {
         workloads::ProdConsParams p;
         p.producers = o.producers;
         p.consumers = o.consumers;
         p.useMwait = a.waitCapable;
         p.backoff = sync::BackoffPolicy::fixed(o.backoffCycles);
         return p;
       },
       [](const Options& o, const Adapter&) -> Error {
         if (o.producers == 0 || o.consumers == 0) {
           return "--producers and --consumers must be >= 1";
         }
         if (std::uint64_t{o.producers} + o.consumers > o.cores) {
           return "--producers + --consumers (" +
                  std::to_string(o.producers) + " + " +
                  std::to_string(o.consumers) + ") exceeds --cores (" +
                  std::to_string(o.cores) + ")";
         }
         return std::nullopt;
       },
       {"adapter", "producers", "consumers", "items/cycle", "items",
        "sleep%", "reqs/item", "verified"}},
      {"matmul",
       [](const exp::RunSpec& s) {
         const auto& p = std::get<workloads::MatmulParams>(s.params);
         return "matmul (n=" + std::to_string(p.n) + ")";
       },
       [](const Options& o, const Adapter&) -> exp::WorkloadParams {
         workloads::MatmulParams p;
         p.n = o.matmulN;
         p.workers.resize(o.cores);
         std::iota(p.workers.begin(), p.workers.end(), 0);
         return p;
       },
       [](const Options& o, const Adapter&) {
         return o.matmulN == 0 ? Error("--matmul-n must be >= 1")
                               : std::nullopt;
       },
       {"adapter", "workers", "n", "cycles", "macs", "macs/cycle",
        "verified"}},
      {"hashtable",
       [](const exp::RunSpec&) {
         return std::string("hashtable (lock-free linear probing)");
       },
       [](const Options& o, const Adapter&) -> exp::WorkloadParams {
         workloads::HashTableParams p;
         p.slots = o.htSlots;
         p.keysPerCore = o.htKeys;
         p.backoff = sync::BackoffPolicy::fixed(o.backoffCycles);
         return p;
       },
       nullptr,
       {"adapter", "workload", "cores", "inserts", "lookups", "ops/cycle",
        "ops", "jain", "sleep%", "verified"}},
      {"wsdeque",
       [](const exp::RunSpec&) {
         return std::string("wsdeque (Chase-Lev work stealing)");
       },
       // Keep the workload's exponential backoff: a fixed --backoff
       // livelocks the top-word CAS storm on the single-slot LR/SC adapter.
       [](const Options& o, const Adapter&) -> exp::WorkloadParams {
         workloads::WsDequeParams p;
         p.tasks = o.wsdTasks;
         p.taskCycles = o.taskCycles;
         return p;
       },
       [](const Options& o, const Adapter&) {
         return o.cores < 2 ? Error("wsdeque needs --cores >= 2 (an owner "
                                    "and a thief)")
                            : std::nullopt;
       },
       {"adapter", "cores", "tasks", "cycles", "owner-pops", "steals",
        "tasks/cycle", "verified"}},
      {"lockfair",
       [](const exp::RunSpec&) {
         return std::string("lockfair (TAS handoff/fairness)");
       },
       [](const Options& o, const Adapter&) -> exp::WorkloadParams {
         workloads::LockFairParams p;
         p.csCycles = o.csCycles;
         p.backoff = sync::BackoffPolicy::fixed(o.backoffCycles);
         return p;
       },
       nullptr,
       {"adapter", "cores", "acq/cycle", "acqs", "jain", "acq-min", "acq-max",
        "wait-p50", "wait-p99", "verified"}},
      {nullptr,
       [](const exp::RunSpec& s) { return "wgen preset '" + s.workload + "'"; },
       [](const Options& o, const Adapter&) -> exp::WorkloadParams {
         wgen::WgenParams p;
         p.kernel = wgen::findPreset(o.workload)->spec;
         p.backoff = sync::BackoffPolicy::fixed(o.backoffCycles);
         for (auto& region : p.kernel.regions) {
           region.zipfTheta = o.zipfTheta.value_or(region.zipfTheta);
           region.hotFraction = o.hotFraction.value_or(region.hotFraction);
           if (o.wgenWords != 0 && region.dist != wgen::AddrDist::kStrided) {
             region.range = o.wgenWords;
           }
         }
         return p;
       },
       nullptr,
       {"adapter", "workload", "cores", "ops/cycle", "ops", "jain", "lat-p50",
        "lat-p95", "lat-p99", "sleep%", "verified"}},
  };
  return table;
}

/// The histogram's bins, or a wgen kernel's regions and lock words, must
/// fit in the SPM; otherwise the run would stop at the first allocation
/// that does not fit, as a failed simulation invariant (exit 1) instead of
/// a usage error. A dry run on a scratch allocator finds out first.
Error spmError(const exp::RunSpec& spec) {
  std::optional<wgen::KernelSpec> kernel;
  if (const auto* h = std::get_if<workloads::HistogramParams>(&spec.params)) {
    kernel = workloads::histogramKernel(*h);
  } else if (const auto* w = std::get_if<wgen::WgenParams>(&spec.params)) {
    kernel = w->kernel;
  }
  if (!kernel) {
    return std::nullopt;
  }
  const auto& cfg = spec.config;
  arch::Allocator dryRun(cfg);
  try {
    (void)wgen::allocateRegions(dryRun, *kernel, cfg.numCores);
    return std::nullopt;
  } catch (const sim::InvariantViolation&) {
    return spec.workload + " does not fit in the " +
           std::to_string(cfg.numWords()) + "-word SPM (" +
           std::to_string(cfg.numBanks()) + " banks x --words-per-bank " +
           std::to_string(cfg.wordsPerBank) + ")";
  }
}

const WorkloadEntry* findEntry(const std::string& workload) {
  for (const auto& e : workloadTable()) {
    if (e.name != nullptr ? workload == e.name
                          : wgen::findPreset(workload) != nullptr) {
      return &e;
    }
  }
  return nullptr;
}

/// The result table: banner, the entry's columns and, with --reps N > 1,
/// the aggregate columns (the rate column always shows the mean across
/// reps, identical to the single measurement for N = 1).
void printTable(const WorkloadEntry& entry, const Options& opts,
                const exp::RunSpec& spec, const exp::SweepResult& res,
                std::ostream& out) {
  maybeBanner(out, opts,
              "colibri-sim: " + entry.title(spec) + " on " + opts.adapter);
  const Row source{opts, res, res.primary()};
  std::vector<std::string> headers;
  std::vector<std::string> row;
  for (const auto column : entry.columns) {
    headers.emplace_back(column);
    row.push_back(cells().at(column)(source));
  }
  if (opts.reps > 1) {
    headers.insert(headers.end(), {"reps", "stddev", "min", "max"});
    row.insert(row.end(), {std::to_string(res.reps.size()),
                           report::fmt(res.opsPerCycle.stddev, 4),
                           report::fmt(res.opsPerCycle.min, 4),
                           report::fmt(res.opsPerCycle.max, 4)});
  }
  report::Table table(headers);
  table.addRow(row);
  emit(table, out, opts.csv);
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

std::optional<std::string> buildSpec(const Options& opts,
                                     exp::RunSpec& spec) {
  const auto adapter = exp::findAdapter(opts.adapter);
  if (!adapter) {
    return "unknown adapter '" + opts.adapter +
           "' (choose from: " + exp::adapterNameList() + ")";
  }
  if (!exp::findWorkload(opts.workload)) {
    return "unknown workload '" + opts.workload +
           "' (choose from: " + exp::workloadNameList() + ")";
  }
  const auto scenario = exp::findScenario(opts.adapter, opts.workload);
  if (scenario && !scenario->supported) {
    return "scenario " + opts.adapter + " x " + opts.workload +
           " is not runnable (" + scenario->whyUnsupported + "); see --list";
  }

  arch::SystemConfig cfg;
  if (auto geomError = buildConfig(opts, *adapter, cfg)) {
    return geomError;
  }

  const auto* entry = findEntry(opts.workload);
  if (entry == nullptr) {
    throw std::logic_error("workload '" + opts.workload +
                           "' is registered but has no runner (internal "
                           "error)");
  }
  if (entry->check != nullptr) {
    if (auto knobError = entry->check(opts, *adapter)) {
      return knobError;
    }
  }
  if (opts.reps == 0) {
    return "--reps must be >= 1";
  }
  spec = exp::RunSpec{};
  spec.label = opts.adapter + "/" + opts.workload;
  spec.workload = opts.workload;
  spec.config = cfg;
  spec.params = entry->params(opts, *adapter);
  spec.window = workloads::MeasureWindow{opts.warmup, opts.measure};
  spec.seed = opts.seed;
  spec.repetitions = opts.reps;
  if (opts.measure == 0 && exp::isWindowed(spec.params)) {
    // Windowed workloads report rates over the measurement window; an
    // empty window would print 0 ops/cycle as a verified result.
    return "--measure must be >= 1 for workload '" + opts.workload + "'";
  }
  if (opts.hotFraction > 1.0) {
    return "--hot-fraction must be <= 1";
  }
  return spmError(spec);
}

int runScenario(const Options& opts, std::ostream& out, std::ostream& err) {
  if (!opts.litmus.empty() || opts.litmusMatrix) {
    return runLitmusMode(opts, out, err);
  }
  exp::RunSpec spec;
  try {
    if (const auto e = buildSpec(opts, spec)) {
      err << "colibri-sim: " << *e << "\n";
      return 2;
    }
  } catch (const std::logic_error& e) {
    err << "colibri-sim: " << e.what() << "\n";
    return 1;
  }
  const auto& entry = *findEntry(opts.workload);
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
    spec.config.recorder = &recorder;
  }

  try {
    const std::vector<exp::RunSpec> specs = {std::move(spec)};
    exp::SweepRunner runner(opts.threads);
    const auto results = runner.run(specs);
    const auto& res = results.front();

    if (opts.json) {
      exp::JsonOptions jsonOpts;
      jsonOpts.recorder = wantSampling ? &recorder : nullptr;
      exp::writeJson(out, specs, results, jsonOpts);
    } else {
      printTable(entry, opts, specs.front(), res, out);
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
