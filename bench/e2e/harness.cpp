// End-to-end benchmark harness: one workload, one process, one thread.
//
//   e2e_harness [--seconds S] [--min-reps N] [--setup-reps N]
//               [--traced DIR] [--plant-mismatch] -- <colibri-sim flags>
//
// The workload is named by the flags colibri-sim takes, parsed by the CLI's
// own cli::parseArgs / cli::buildConfig, so the harness runs the
// configuration the equivalent colibri-sim command runs. In order:
//   1. a round of --setup-reps constructions of arch::System, each timed
//      alone;
//   2. one untimed warm-up rep that fills the coroutine frame pool and the
//      allocator, driven through arch::System directly so that System
//      teardown can be timed as well;
//   3. timed exp::runOne reps until --seconds have passed, and at least
//      --min-reps of them, each followed by another round of constructions.
//      Spreading the rounds over the run keeps one slow moment of a shared
//      host from setting the set-up time;
//   4. with --traced DIR: two exp::runOne reps under the PC sampler, and one
//      with an obs::Recorder attached, whose metrics CSV and span trace go
//      to DIR.
// Every rep runs the same seed, so every rep must reproduce the warm-up's
// simulated digest (window ops, window cycles, SystemCounters). A rep that
// throws, fails its workload's self-check or differs is counted as failed.
// --plant-mismatch corrupts the digest of the second timed rep, so the
// self-test can show that such a rep is counted.
//
// Prints one JSON object on stdout; run.py turns it into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "arch/system.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "obs/recorder.hpp"
#include "report/json.hpp"
#include "sampler.hpp"
#include "wgen/presets.hpp"

namespace colibri::bench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct HarnessArgs {
  double seconds = 10.0;
  std::uint32_t minReps = 3;
  std::uint32_t setupReps = 11;
  std::string tracedDir;  ///< empty = no traced reps
  bool plantMismatch = false;
  std::vector<std::string> cliArgs;
};

std::optional<HarnessArgs> parseHarnessArgs(int argc, char** argv) {
  HarnessArgs a;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--") {
      ++i;
      break;
    }
    if (flag == "--plant-mismatch") {
      a.plantMismatch = true;
      continue;
    }
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--min-reps") {
        a.minReps = static_cast<std::uint32_t>(std::stoul(value));
      } else if (flag == "--setup-reps") {
        a.setupReps = static_cast<std::uint32_t>(std::stoul(value));
      } else if (flag == "--traced") {
        a.tracedDir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  a.cliArgs.assign(argv + i, argv + argc);
  if (a.minReps < 1 || a.setupReps < 1) {
    return std::nullopt;
  }
  return a;
}

/// The RunSpec colibri-sim builds for these options. The benchmark's
/// workloads are histograms and wgen presets, so only those are mapped;
/// the CLI cross-check in run.py holds this mapping to the CLI's.
std::optional<exp::RunSpec> specFor(const cli::Options& opts,
                                    std::string& error) {
  const auto adapter = exp::findAdapter(opts.adapter);
  const auto scenario = exp::findScenario(opts.adapter, opts.workload);
  if (!adapter || !scenario || !scenario->supported) {
    error = "not a runnable scenario: " + opts.adapter + " x " + opts.workload;
    return std::nullopt;
  }
  exp::RunSpec spec;
  if (const auto geometryError = cli::buildConfig(opts, *adapter, spec.config)) {
    error = *geometryError;
    return std::nullopt;
  }
  spec.label = opts.adapter + "/" + opts.workload;
  spec.workload = opts.workload;
  spec.window = workloads::MeasureWindow{opts.warmup, opts.measure};
  spec.seed = opts.seed;
  const auto backoff = sync::BackoffPolicy::fixed(opts.backoffCycles);
  if (opts.workload == "histogram") {
    workloads::HistogramParams p;
    p.bins = opts.bins;
    p.mode = exp::histogramModeFor(*adapter);
    p.backoff = backoff;
    p.window = spec.window;
    spec.params = p;
  } else if (const auto* preset = wgen::findPreset(opts.workload)) {
    wgen::WgenParams p;
    p.kernel = preset->spec;
    p.backoff = backoff;
    p.window = spec.window;
    spec.params = p;
  } else {
    error = "the harness maps only histogram and wgen presets, not " +
            opts.workload;
    return std::nullopt;
  }
  return spec;
}

/// The simulated outcome every rep of one seed must reproduce.
using Digest = std::array<std::uint64_t, 11>;

Digest digestOf(const workloads::RateResult& r) {
  const auto& c = r.counters;
  return {r.opsInWindow,      c.windowCycles,   c.instructions,
          c.computeCycles,    c.sleepCycles,    c.stallCycles,
          c.bankAccesses,     c.netMessages[0], c.netMessages[1],
          c.netMessages[2],   c.activeCores};
}

/// Counts attempted and failed reps against the first digest seen.
class RepLedger {
 public:
  void record(const std::string& rep, const std::string& error,
              bool verified, const Digest& digest) {
    ++attempted_;
    std::string why = error;
    if (why.empty() && !verified) {
      why = "workload self-check failed";
    }
    if (why.empty()) {
      if (!reference_) {
        reference_ = digest;
      } else if (digest != *reference_) {
        why = "simulated digest differs from the first rep";
      }
    }
    if (!why.empty()) {
      failures_.push_back(rep + ": " + why);
    }
  }

  [[nodiscard]] std::uint32_t attempted() const { return attempted_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint32_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::optional<Digest> reference_;
};

struct TimedRep {
  double seconds = 0.0;
  std::optional<exp::RunResult> result;
  std::string error;
};

TimedRep timedRunOne(const exp::RunSpec& spec) {
  TimedRep rep;
  const auto t0 = Clock::now();
  try {
    rep.result = exp::runOne(spec);
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  rep.seconds = secondsSince(t0);
  return rep;
}

void record(RepLedger& ledger, const std::string& name, const TimedRep& rep,
            bool corrupt = false) {
  Digest d{};
  if (rep.result) {
    d = digestOf(rep.result->rate);
  }
  if (corrupt) {
    d[0] ^= 1;
  }
  ledger.record(name, rep.error, rep.result && rep.result->verified, d);
}

/// The warm-up rep: the workload on a System this function owns, so the
/// System's destruction can be timed on its own.
void warmUp(const exp::RunSpec& spec, RepLedger& ledger, double& teardownS) {
  std::string error;
  workloads::RateResult rate;
  bool verified = false;
  try {
    auto sys = std::make_unique<arch::System>(spec.config);
    std::visit(
        [&](const auto& p) {
          using P = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<P, workloads::HistogramParams>) {
            const auto r = workloads::runHistogram(*sys, p);
            rate = r.rate;
            verified = r.sumVerified;
          } else if constexpr (std::is_same_v<P, wgen::WgenParams>) {
            const auto r = wgen::runKernel(*sys, p);
            rate = r.rate;
            verified = r.sumVerified;
          } else {
            throw std::logic_error("warm-up: unmapped workload");
          }
        },
        spec.params);
    const auto t0 = Clock::now();
    sys.reset();
    teardownS = secondsSince(t0);
  } catch (const std::exception& e) {
    error = e.what();
  }
  ledger.record("warm-up", error, verified, digestOf(rate));
}

void writeDoubles(report::JsonWriter& w, std::string_view key,
                  const std::vector<double>& xs) {
  w.key(key).beginArray();
  for (const double x : xs) {
    w.value(x);
  }
  w.endArray();
}

/// Sampled PCs grouped by where they fall: executable PCs by address,
/// everything else by the basename of its mapping.
void writeSamples(report::JsonWriter& w, const PcSampler& sampler) {
  const auto maps = selfMappings();
  const std::string exe = selfExePath();
  std::uintptr_t exeBase = ~std::uintptr_t{0};
  for (const auto& m : maps) {
    if (m.path == exe && m.offset == 0) {
      exeBase = std::min(exeBase, m.lo);
    }
  }
  std::map<std::uintptr_t, std::uint64_t> exePcs;
  std::map<std::string, std::uint64_t> elsewhere;
  for (const std::uintptr_t pc : sampler.pcs()) {
    const auto it = std::find_if(maps.begin(), maps.end(), [pc](const auto& m) {
      return pc >= m.lo && pc < m.hi;
    });
    if (it == maps.end()) {
      ++elsewhere["?"];
    } else if (it->path == exe) {
      ++exePcs[pc];
    } else {
      const auto slash = it->path.rfind('/');
      ++elsewhere[it->path.empty() ? "[anon]" : it->path.substr(slash + 1)];
    }
  }
  w.key("samples").beginObject();
  w.kv("exe", exe);
  w.kv("exe_base", static_cast<std::uint64_t>(exeBase));
  w.key("exe_pcs").beginArray();
  for (const auto& [pc, n] : exePcs) {
    w.beginArray().value(static_cast<std::uint64_t>(pc)).value(n).endArray();
  }
  w.endArray();
  w.key("elsewhere").beginObject();
  for (const auto& [name, n] : elsewhere) {
    w.kv(name, n);
  }
  w.endObject();
  w.endObject();
}

int run(const HarnessArgs& args) {
  const auto parsed = cli::parseArgs(args.cliArgs);
  if (!parsed.ok()) {
    std::cerr << "e2e_harness: " << *parsed.error << "\n";
    return 2;
  }
  std::string error;
  const auto spec = specFor(parsed.options, error);
  if (!spec) {
    std::cerr << "e2e_harness: " << error << "\n";
    return 2;
  }

  std::vector<double> setupS;
  const auto setupRound = [&] {
    for (std::uint32_t i = 0; i < args.setupReps; ++i) {
      const auto t0 = Clock::now();
      auto sys = std::make_unique<arch::System>(spec->config);
      setupS.push_back(secondsSince(t0));
    }
  };
  setupRound();

  RepLedger ledger;
  double teardownS = 0.0;
  warmUp(*spec, ledger, teardownS);

  std::vector<double> repS;
  std::optional<exp::RunResult> first;
  const auto loopStart = Clock::now();
  for (std::uint32_t i = 0;
       i < args.minReps || secondsSince(loopStart) < args.seconds; ++i) {
    const TimedRep rep = timedRunOne(*spec);
    record(ledger, "rep " + std::to_string(i), rep,
           args.plantMismatch && i == 1);
    if (rep.result) {
      repS.push_back(rep.seconds);
      if (!first) {
        first = rep.result;
      }
    }
    setupRound();
  }

  std::optional<PcSampler> sampler;
  std::vector<TimedRep> sampled;
  std::optional<TimedRep> recorded;
  if (!args.tracedDir.empty()) {
    // Two reps give at least 2000 samples on the shortest workload.
    sampler.emplace(1u << 18);
    sampler->start();
    for (int i = 0; i < 2; ++i) {
      sampled.push_back(timedRunOne(*spec));
    }
    sampler->stop();
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      record(ledger, "sampled rep " + std::to_string(i), sampled[i]);
    }

    obs::Recorder::Config rc;
    rc.sampleInterval = std::max<sim::Cycle>(1, spec->window.horizon() / 64);
    rc.traceEnabled = true;
    // Every 1024th op per core keeps the span file to a few MB at the
    // benchmark's windows while still sampling thousands of requests.
    rc.traceEvery = 1024;
    obs::Recorder recorder(rc);
    exp::RunSpec observed = *spec;
    observed.config.recorder = &recorder;
    recorded = timedRunOne(observed);
    record(ledger, "recorder rep", *recorded);
    if (recorded->result) {
      std::ofstream csv(args.tracedDir + "/metrics.csv");
      recorder.writeMetricsCsv(csv);
      std::ofstream trace(args.tracedDir + "/trace.json");
      recorder.writeChromeTrace(trace);
      if (!csv || !trace) {
        std::cerr << "e2e_harness: cannot write to " << args.tracedDir << "\n";
        return 1;
      }
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  report::JsonWriter w(std::cout);
  w.beginObject();
  w.kv("attempted", ledger.attempted());
  w.kv("failed", static_cast<std::uint32_t>(ledger.failures().size()));
  w.key("failures").beginArray();
  for (const auto& f : ledger.failures()) {
    w.value(f);
  }
  w.endArray();
  writeDoubles(w, "setup_s", setupS);
  w.kv("teardown_s", teardownS);
  writeDoubles(w, "rep_s", repS);
  w.kv("peak_rss_kib", static_cast<std::uint64_t>(usage.ru_maxrss));
  if (first) {
    const auto& r = *first;
    w.key("model").beginObject();
    w.kv("ops_in_window", r.rate.opsInWindow);
    w.kv("ops_per_cycle", r.rate.opsPerCycle);
    w.kv("pj_per_op", r.energyPerOpPj);
    w.kv("jain", r.rate.fairnessJain);
    w.kv("latency_samples", static_cast<std::uint64_t>(r.opLatency.count));
    w.key("counters").beginObject();
    const auto& c = r.rate.counters;
    w.kv("instructions", c.instructions);
    w.kv("sleep_cycles", c.sleepCycles);
    w.kv("stall_cycles", c.stallCycles);
    w.kv("bank_accesses", c.bankAccesses);
    w.kv("net_local_tile", c.netMessages[0]);
    w.kv("net_same_group", c.netMessages[1]);
    w.kv("net_remote_group", c.netMessages[2]);
    w.kv("window_cycles", static_cast<std::uint64_t>(c.windowCycles));
    w.kv("active_cores", c.activeCores);
    w.endObject();
    w.endObject();
  }
  if (sampler) {
    w.key("traced").beginObject();
    w.key("sampled_s").beginArray();
    for (const auto& rep : sampled) {
      w.value(rep.seconds);
    }
    w.endArray();
    w.kv("recorder_s", recorded->seconds);
    writeSamples(w, *sampler);
    w.endObject();
  }
  w.endObject();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace colibri::bench

int main(int argc, char** argv) {
  const auto args = colibri::bench::parseHarnessArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: e2e_harness [--seconds S] [--min-reps N] "
                 "[--setup-reps N] [--traced DIR] [--plant-mismatch] -- "
                 "<colibri-sim flags>\n";
    return 2;
  }
  try {
    return colibri::bench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_harness: " << e.what() << "\n";
    return 1;
  }
}
