#include "cli/options.hpp"

#include <charconv>
#include <functional>
#include <map>
#include <ostream>

namespace colibri::cli {
namespace {

template <typename T>
bool parseNumber(const std::string& text, T& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

struct Flag {
  const char* help;
  bool takesValue;
  std::function<bool(Options&, const std::string&)> apply;
};

template <typename T>
Flag numberFlag(const char* help, T Options::* member) {
  return Flag{help, true, [member](Options& o, const std::string& v) {
                return parseNumber(v, o.*member);
              }};
}

/// A preset override: a real >= 0 (negatives and NaN are rejected, not
/// read as "unset").
Flag overrideFlag(const char* help, std::optional<double> Options::* member) {
  return Flag{help, true, [member](Options& o, const std::string& v) {
                double x = 0.0;
                if (!parseNumber(v, x) || !(x >= 0.0)) {
                  return false;
                }
                o.*member = x;
                return true;
              }};
}

Flag stringFlag(const char* help, std::string Options::* member) {
  return Flag{help, true, [member](Options& o, const std::string& v) {
                o.*member = v;
                return true;
              }};
}

Flag boolFlag(const char* help, bool Options::* member) {
  return Flag{help, false, [member](Options& o, const std::string&) {
                o.*member = true;
                return true;
              }};
}

const std::map<std::string, Flag>& flagTable() {
  static const std::map<std::string, Flag> table = {
      {"--adapter", stringFlag("atomic adapter: amo | lrsc_single | "
                               "lrsc_table | lrscwait | lrscwait_ideal | "
                               "colibri",
                               &Options::adapter)},
      {"--workload", stringFlag("workload: histogram | msqueue | prodcons | "
                                "matmul | ticket_queue | a wgen preset "
                                "(see --list)",
                                &Options::workload)},
      {"--cores", numberFlag("total cores (default 256)", &Options::cores)},
      {"--cores-per-tile",
       numberFlag("cores per tile (default 4)", &Options::coresPerTile)},
      {"--tiles-per-group",
       numberFlag("tiles per group (default 16)", &Options::tilesPerGroup)},
      {"--banks-per-tile",
       numberFlag("SPM banks per tile (default 16)", &Options::banksPerTile)},
      {"--words-per-bank",
       numberFlag("words per bank (default 256)", &Options::wordsPerBank)},
      {"--wait-capacity",
       numberFlag("LRSCwait_q queue capacity; 0 = one slot per core",
                  &Options::waitCapacity)},
      {"--colibri-queues",
       numberFlag("Colibri queue slots per controller (default 4)",
                  &Options::colibriQueues)},
      {"--warmup",
       numberFlag("warmup cycles before the window (default 2000)",
                  &Options::warmup)},
      {"--measure",
       numberFlag("measurement-window cycles (default 20000)",
                  &Options::measure)},
      {"--bins",
       numberFlag("histogram bins / contention level (default 16)",
                  &Options::bins)},
      {"--backoff",
       numberFlag("fixed retry backoff in cycles (default 128)",
                  &Options::backoffCycles)},
      {"--producers",
       numberFlag("prodcons producer cores (default 8)", &Options::producers)},
      {"--consumers",
       numberFlag("prodcons consumer cores (default 8)", &Options::consumers)},
      {"--queue-capacity",
       numberFlag("queue slots; 0 = 2 * cores", &Options::queueCapacity)},
      {"--matmul-n",
       numberFlag("matmul square dimension (default 32)", &Options::matmulN)},
      {"--ht-slots",
       numberFlag("hashtable slots; 0 = 16 * cores", &Options::htSlots)},
      {"--ht-keys",
       numberFlag("hashtable inserts per core; 0 = equal share of half "
                  "the table",
                  &Options::htKeys)},
      {"--wsd-tasks",
       numberFlag("wsdeque ring size; 0 = 8 * cores", &Options::wsdTasks)},
      {"--task-cycles",
       numberFlag("wsdeque compute cycles per task (default 12)",
                  &Options::taskCycles)},
      {"--cs-cycles",
       numberFlag("lockfair critical-section cycles (default 8)",
                  &Options::csCycles)},
      {"--zipf-theta",
       overrideFlag("wgen: Zipf skew >= 0 for zipfian regions (default: "
                    "preset value)",
                    &Options::zipfTheta)},
      {"--hot-fraction",
       overrideFlag("wgen: hot-word probability in [0, 1] for hotspot "
                    "regions (default: preset value)",
                    &Options::hotFraction)},
      {"--wgen-words",
       numberFlag("wgen: words per non-strided region; 0 = preset value",
                  &Options::wgenWords)},
      {"--seed", numberFlag("RNG seed", &Options::seed)},
      {"--fault",
       stringFlag("fault-injection profile: net_jitter | sc_storm | "
                  "evict_churn | chaos | off (default off)",
                  &Options::faultProfile)},
      {"--fault-seed",
       numberFlag("fault decision seed; 0 = derive from --seed",
                  &Options::faultSeed)},
      {"--fault-net-delay",
       stringFlag("extra network delivery delay as P,MAX (probability per "
                  "hop, max extra cycles)",
                  &Options::faultNetDelay)},
      {"--fault-sc-fail",
       stringFlag("spurious SC/SCwait failure probability P per "
                  "would-succeed commit",
                  &Options::faultScFail)},
      {"--fault-evict",
       stringFlag("reservation-eviction probability P per handled bank "
                  "request",
                  &Options::faultEvict)},
      {"--fault-stall",
       stringFlag("transient bank service stall as P,MAX (probability per "
                  "grant, max extra cycles)",
                  &Options::faultStall)},
      {"--watchdog",
       numberFlag("hang watchdog: diagnose + exit 3 after this many cycles "
                  "without productive progress; 0 disables (default "
                  "250000)",
                  &Options::watchdog)},
      {"--litmus",
       stringFlag("run a litmus algorithm instead of a workload: dekker | "
                  "peterson | bakery | tas | naive | race | all",
                  &Options::litmus)},
      {"--contenders",
       numberFlag("litmus: contending cores; 0 = algorithm default",
                  &Options::contenders)},
      {"--litmus-iters",
       numberFlag("litmus: critical-section entries per contender "
                  "(default 40)",
                  &Options::litmusIters)},
      {"--litmus-matrix",
       boolFlag("litmus: sweep every adapter (ignores --adapter)",
                &Options::litmusMatrix)},
      {"--unfenced",
       boolFlag("litmus: posted protocol stores (memory-model probe; "
                "flag algorithms may violate exclusion)",
                &Options::unfenced)},
      {"--reps",
       numberFlag("independent repetitions (derived seeds); > 1 reports "
                  "mean/stddev (default 1)",
                  &Options::reps)},
      {"--threads",
       numberFlag("sweep worker threads; 0 = all hardware threads",
                  &Options::threads)},
      {"--stats", boolFlag("print every metric to stderr after the run",
                           &Options::stats)},
      {"--metrics-csv",
       stringFlag("write interval metric samples (simulated-cycle "
                  "time-series) to this CSV file; requires --reps 1",
                  &Options::metricsCsv)},
      {"--metrics-interval",
       numberFlag("cycles between metric samples; 0 = default (1000)",
                  &Options::metricsInterval)},
      {"--trace",
       stringFlag("write per-request lifecycle spans as Chrome trace_event "
                  "JSON to this file; requires --reps 1",
                  &Options::trace)},
      {"--trace-sample",
       numberFlag("trace every K-th op per core (default 1 = all)",
                  &Options::traceSample)},
      {"--csv", boolFlag("emit CSV instead of an aligned table",
                         &Options::csv)},
      {"--json", boolFlag("emit the full result (per-rep + aggregate) as "
                          "JSON",
                          &Options::json)},
      {"--list", boolFlag("list every adapter x workload scenario and exit",
                          &Options::listScenarios)},
      {"--help", boolFlag("show this help", &Options::help)},
  };
  return table;
}

}  // namespace

ParseResult parseArgs(const std::vector<std::string>& args) {
  ParseResult result;
  const auto& table = flagTable();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string name = arg;
    std::optional<std::string> inlineValue;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inlineValue = arg.substr(eq + 1);
    }
    const auto it = table.find(name);
    if (it == table.end()) {
      result.error = "unknown flag '" + name +
                     "' — run 'colibri-sim --help' for the flag list";
      return result;
    }
    const Flag& flag = it->second;
    std::string value;
    if (flag.takesValue) {
      if (inlineValue) {
        value = *inlineValue;
      } else if (i + 1 < args.size()) {
        value = args[++i];
      } else {
        result.error = "flag '" + name +
                       "' needs a value — run 'colibri-sim --help' for usage";
        return result;
      }
    } else if (inlineValue) {
      result.error = "flag '" + name + "' takes no value";
      return result;
    }
    if (!flag.apply(result.options, value)) {
      result.error = "invalid value '" + value + "' for flag '" + name +
                     "' — run 'colibri-sim --help' for usage";
      return result;
    }
  }
  return result;
}

void printUsage(std::ostream& os) {
  os << "colibri-sim — unified driver over every adapter x workload x "
        "geometry scenario\n\n"
        "usage: colibri-sim [--adapter A] [--workload W] [flags...]\n\n"
        "flags:\n";
  for (const auto& [name, flag] : flagTable()) {
    os << "  " << name;
    for (std::size_t pad = name.size(); pad < 20; ++pad) {
      os << ' ';
    }
    os << flag.help << '\n';
  }
  os << "\nexamples:\n"
        "  colibri-sim --adapter colibri --workload histogram --cores 256\n"
        "  colibri-sim --adapter colibri --workload histogram --json "
        "--reps 3\n"
        "  colibri-sim --adapter lrscwait --wait-capacity 128 --workload "
        "msqueue\n"
        "  colibri-sim --adapter lrsc_single --workload prodcons "
        "--producers 16 --consumers 16\n"
        "  colibri-sim --adapter colibri --workload zipf_hot "
        "--zipf-theta 0.99\n"
        "  colibri-sim --litmus all --litmus-matrix --cores 16\n"
        "  colibri-sim --litmus dekker --unfenced --cores 16\n"
        "  colibri-sim --adapter colibri --workload histogram --fault chaos\n"
        "  colibri-sim --list\n";
}

}  // namespace colibri::cli
