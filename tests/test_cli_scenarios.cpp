// CLI driver tests: the scenario registry enumerates every adapter x
// workload pair, flag parsing surfaces usable errors, and a small
// end-to-end run through cli::runMain prints a result table.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "exp/scenario.hpp"
#include "test_util.hpp"
#include "wgen/presets.hpp"

namespace colibri::cli {
namespace {

using exp::adapters;
using exp::allScenarios;
using exp::findAdapter;
using exp::findScenario;
using exp::findWorkload;
using exp::workloads;

TEST(CliRegistry, EnumeratesAllAdapterWorkloadPairs) {
  const auto& as = adapters();
  const auto& ws = workloads();
  ASSERT_GE(as.size(), 6u);   // amo, lrsc_single, lrsc_table, lrscwait,
                              // lrscwait_ideal, colibri
  ASSERT_GE(ws.size(), 13u);  // histogram, msqueue, prodcons, matmul,
                              // ticket_queue + >= 8 wgen presets

  const auto scenarios = allScenarios();
  EXPECT_EQ(scenarios.size(), as.size() * ws.size());

  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& s : scenarios) {
    seen.emplace(s.adapter.name, s.workload.name);
  }
  EXPECT_EQ(seen.size(), scenarios.size()) << "duplicate scenario pairs";
  for (const auto& a : as) {
    for (const auto& w : ws) {
      EXPECT_TRUE(seen.count({a.name, w.name}))
          << "missing scenario " << a.name << " x " << w.name;
    }
  }
}

TEST(CliRegistry, NamesMatchIssueSurface) {
  for (const char* name : {"amo", "lrsc_single", "lrsc_table", "lrscwait",
                           "lrscwait_ideal", "colibri"}) {
    EXPECT_TRUE(findAdapter(name).has_value()) << name;
  }
  for (const char* name :
       {"histogram", "msqueue", "prodcons", "matmul", "ticket_queue",
        "uniform_fa", "zipf_hot", "hotspot1", "readers_writers",
        "stride_fs", "mixed_cas", "burst", "lock_zipf"}) {
    EXPECT_TRUE(findWorkload(name).has_value()) << name;
  }
  EXPECT_FALSE(findAdapter("tsx").has_value());
  EXPECT_FALSE(findWorkload("raytracer").has_value());
}

TEST(CliRegistry, OnlyReservationNeedsOnAmoUnsupported) {
  for (const auto& s : allScenarios()) {
    bool expectUnsupported = false;
    if (s.adapter.name == "amo") {
      const auto* preset = wgen::findPreset(s.workload.name);
      expectUnsupported =
          s.workload.name == "prodcons" || s.workload.name == "hashtable" ||
          s.workload.name == "wsdeque" ||
          (preset != nullptr && wgen::needsReservations(preset->spec));
    }
    EXPECT_EQ(s.supported, !expectUnsupported)
        << s.adapter.name << " x " << s.workload.name;
  }
}

TEST(CliOptions, ParsesScenarioAndGeometryFlags) {
  const auto r = parseArgs({"--adapter", "lrscwait", "--workload", "msqueue",
                            "--cores", "64", "--wait-capacity=16",
                            "--measure", "5000", "--csv"});
  ASSERT_TRUE(r.ok()) << *r.error;
  EXPECT_EQ(r.options.adapter, "lrscwait");
  EXPECT_EQ(r.options.workload, "msqueue");
  EXPECT_EQ(r.options.cores, 64u);
  EXPECT_EQ(r.options.waitCapacity, 16u);
  EXPECT_EQ(r.options.measure, 5000u);
  EXPECT_TRUE(r.options.csv);
}

TEST(CliOptions, UnknownFlagFailsWithUsableError) {
  const auto r = parseArgs({"--frobnicate", "7"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error->find("--frobnicate"), std::string::npos)
      << "error must name the offending flag: " << *r.error;
  EXPECT_NE(r.error->find("--help"), std::string::npos)
      << "error must point at --help: " << *r.error;
}

TEST(CliOptions, MissingAndMalformedValuesFail) {
  const auto missing = parseArgs({"--cores"});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error->find("--cores"), std::string::npos);

  const auto malformed = parseArgs({"--cores", "many"});
  ASSERT_FALSE(malformed.ok());
  EXPECT_NE(malformed.error->find("many"), std::string::npos);
}

TEST(CliDriver, StatsFlagPrintsCountersToStderrOnly) {
  auto run = [](bool stats, std::string& outStr, std::string& errStr) {
    std::vector<std::string> args = {
        "--workload", "histogram", "--cores",   "64",  "--tiles-per-group",
        "4",          "--warmup",  "200",       "--measure", "1000"};
    if (stats) {
      args.emplace_back("--stats");
    }
    std::ostringstream out, err;
    const int rc = runMain(args, out, err);
    outStr = out.str();
    errStr = err.str();
    return rc;
  };
  std::string quietOut, quietErr, statsOut, statsErr;
  ASSERT_EQ(run(false, quietOut, quietErr), 0) << quietErr;
  ASSERT_EQ(run(true, statsOut, statsErr), 0) << statsErr;
  // stdout is byte-identical with and without --stats (golden-corpus and
  // CI byte gates depend on this).
  EXPECT_EQ(statsOut, quietOut);
  // --stats prints the metric registry to stderr, as `obs: name = value`
  // lines, and nothing else.
  EXPECT_NE(statsErr.find("obs: core.issuedOps = "), std::string::npos)
      << statsErr;
  EXPECT_NE(statsErr.find("obs: adapter.scSuccesses = "), std::string::npos)
      << statsErr;
  std::istringstream lines(statsErr);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_EQ(line.rfind("obs: ", 0), 0u) << line;
  }
}

TEST(CliDriver, UnknownFlagExitsNonzeroViaMain) {
  // Includes the retired parallel-engine, hang-demo and json-fault flags,
  // which must not linger as silently accepted no-ops.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--frobnicate"},
        std::vector<std::string>{"--engine-threads", "4"},
        std::vector<std::string>{"--json", "--json-engine"},
        std::vector<std::string>{"--hang-demo"},
        std::vector<std::string>{"--json", "--json-fault"}}) {
    std::ostringstream out, err;
    EXPECT_EQ(runMain(args, out, err), 2) << args.back();
    EXPECT_NE(err.str().find("unknown"), std::string::npos) << err.str();
  }
}

TEST(CliDriver, UnknownAdapterListsChoices) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain({"--adapter", "tsx"}, out, err), 2);
  EXPECT_NE(err.str().find("colibri"), std::string::npos)
      << "error should list valid adapters: " << err.str();
}

TEST(CliDriver, BadGeometryIsAUsableError) {
  {
    std::ostringstream out, err;
    EXPECT_EQ(runMain({"--cores", "10", "--cores-per-tile", "4"}, out, err),
              2);
    EXPECT_NE(err.str().find("--cores"), std::string::npos) << err.str();
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(runMain({"--adapter", "colibri", "--colibri-queues", "0"}, out,
                      err),
              2);
    EXPECT_NE(err.str().find("--colibri-queues"), std::string::npos)
        << err.str();
  }
}

TEST(CliDriver, ListPrintsEveryScenario) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain({"--list"}, out, err), 0);
  for (const auto& s : allScenarios()) {
    EXPECT_NE(out.str().find(s.adapter.name), std::string::npos);
    EXPECT_NE(out.str().find(s.workload.name), std::string::npos);
  }
}

TEST(CliDriver, HelpMentionsEveryFlagUsedInTests) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain({"--help"}, out, err), 0);
  for (const char* flag : {"--adapter", "--workload", "--cores",
                           "--wait-capacity", "--measure", "--list",
                           "--json", "--reps", "--threads"}) {
    EXPECT_NE(out.str().find(flag), std::string::npos) << flag;
  }
}

TEST(CliDriver, SmallHistogramRunPrintsResultRow) {
  std::ostringstream out, err;
  const int rc = runMain({"--adapter", "colibri", "--workload", "histogram",
                          "--cores", "16", "--cores-per-tile", "4",
                          "--tiles-per-group", "2", "--banks-per-tile", "4",
                          "--words-per-bank", "64", "--bins", "4", "--warmup",
                          "500", "--measure", "2000"},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("ops/cycle"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("colibri"), std::string::npos);
  EXPECT_NE(out.str().find("yes"), std::string::npos) << "sum not verified";
}

// Shared small-geometry prefix: 16 cores, short window, fast everywhere.
std::vector<std::string> smallRun(std::vector<std::string> extra) {
  std::vector<std::string> args{
      "--adapter",         "colibri", "--workload",      "histogram",
      "--cores",           "16",      "--cores-per-tile", "4",
      "--tiles-per-group", "2",       "--banks-per-tile", "4",
      "--words-per-bank",  "64",      "--bins",          "4",
      "--warmup",          "200",     "--measure",       "1000"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(CliDriver, JsonRunEmitsValidJsonWithAggregates) {
  std::ostringstream out, err;
  const int rc = runMain(smallRun({"--json", "--reps", "3"}), out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_TRUE(test::isValidJson(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"aggregate\""), std::string::npos);
  EXPECT_NE(out.str().find("\"mean\""), std::string::npos);
  EXPECT_NE(out.str().find("\"repetitions\": 3"), std::string::npos);
}

TEST(CliDriver, JsonReportsTheRequestedWorkloadName) {
  // msqueue on amo runs the kLock fallback variant; the document must
  // still say "msqueue", not "ticket_queue".
  std::ostringstream out, err;
  const int rc = runMain(
      smallRun({"--adapter", "amo", "--workload", "msqueue", "--json"}), out,
      err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("\"workload\": \"msqueue\""), std::string::npos)
      << out.str();
}

TEST(CliDriver, RepsTableReportsAggregateColumns) {
  std::ostringstream out, err;
  const int rc = runMain(smallRun({"--reps", "3"}), out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("stddev"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("reps"), std::string::npos);
}

TEST(CliDriver, SingleRepKeepsTheClassicColumns) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain(smallRun({}), out, err), 0) << err.str();
  EXPECT_EQ(out.str().find("stddev"), std::string::npos)
      << "reps-only columns leaked into single-run output";
}

TEST(CliDriver, CsvAndJsonAreMutuallyExclusive) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain(smallRun({"--csv", "--json"}), out, err), 2);
  EXPECT_NE(err.str().find("--csv"), std::string::npos) << err.str();
}

TEST(CliDriver, ZeroRepsOrEmptyWindowIsAUsableError) {
  {
    std::ostringstream out, err;
    EXPECT_EQ(runMain(smallRun({"--reps", "0"}), out, err), 2);
    EXPECT_NE(err.str().find("--reps"), std::string::npos) << err.str();
  }
  // Windowed workloads must not report a "verified" rate over an empty
  // measurement window.
  for (const char* w : {"histogram", "lockfair", "zipf_hot"}) {
    std::ostringstream out, err;
    EXPECT_EQ(runMain(smallRun({"--workload", w, "--measure", "0"}), out,
                      err),
              2)
        << w;
    EXPECT_NE(err.str().find("--measure"), std::string::npos) << err.str();
  }
  // Run-to-completion workloads ignore the window, so 0 stays legal.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--workload", "matmul", "--matmul-n", "8"},
        std::vector<std::string>{"--workload", "wsdeque"}}) {
    auto args = smallRun(extra);
    args.insert(args.end(), {"--measure", "0"});
    std::ostringstream out, err;
    EXPECT_EQ(runMain(args, out, err), 0) << extra[1] << ": " << err.str();
  }
}

TEST(CliDriver, WorkloadFlagChecksAreUsableErrors) {
  // Each workload's knob check: exit 2 with exactly this message, before
  // anything runs.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases{
      {{"--bins", "0"}, "--bins must be >= 1"},
      {{"--workload", "matmul", "--matmul-n", "0"}, "--matmul-n must be >= 1"},
      {{"--workload", "wsdeque", "--cores", "1", "--cores-per-tile", "1",
        "--tiles-per-group", "1"},
       "wsdeque needs --cores >= 2 (an owner and a thief)"},
      {{"--workload", "prodcons", "--producers", "0"},
       "--producers and --consumers must be >= 1"},
      {{"--workload", "prodcons", "--producers", "10", "--consumers", "8"},
       "--producers + --consumers (10 + 8) exceeds --cores (16)"},
      {{"--bins", "1025"},
       "histogram does not fit in the 1024-word SPM (16 banks x "
       "--words-per-bank 64)"},
      {{"--workload", "uniform_fa", "--wgen-words", "1025"},
       "uniform_fa does not fit in the 1024-word SPM (16 banks x "
       "--words-per-bank 64)"},
      // 600 words fit; with their 600 lock words they do not.
      {{"--workload", "lock_zipf", "--wgen-words", "600"},
       "lock_zipf does not fit in the 1024-word SPM (16 banks x "
       "--words-per-bank 64)"},
      // One word per core, all in bank 0: 16 words in an 8-word bank.
      {{"--workload", "stride_fs", "--words-per-bank", "8"},
       "stride_fs does not fit in the 128-word SPM (16 banks x "
       "--words-per-bank 8)"},
  };
  for (const auto& [extra, message] : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(runMain(smallRun(extra), out, err), 2) << message;
    EXPECT_EQ(err.str(), "colibri-sim: " + message + "\n");
    EXPECT_EQ(out.str(), "") << message;
  }
}

TEST(CliDriver, ProdConsCountsDoNotWrapAround) {
  // 4294967295 + 2 wraps to 1 in 32 bits; the check must still see it.
  std::ostringstream out, err;
  EXPECT_EQ(runMain(smallRun({"--workload", "prodcons", "--producers",
                              "4294967295", "--consumers", "2"}),
                    out, err),
            2)
      << err.str();
  EXPECT_EQ(err.str(),
            "colibri-sim: --producers + --consumers (4294967295 + 2) "
            "exceeds --cores (16)\n");
}

TEST(CliDriver, SingleSlotTicketQueueIsAUsableError) {
  // At capacity 1 the ticket queue cannot tell a full slot from a free one,
  // so its dequeuers would poll forever. msqueue on amo runs the
  // lock-based variant, which has no such slot protocol.
  for (const auto& adapter : adapters()) {
    std::ostringstream out, err;
    const bool lockVariant = adapter.kind == arch::AdapterKind::kAmoOnly;
    EXPECT_EQ(runMain(smallRun({"--adapter", adapter.name, "--workload",
                                "msqueue", "--queue-capacity", "1"}),
                      out, err),
              lockVariant ? 0 : 2)
        << adapter.name << ": " << err.str();
    if (!lockVariant) {
      EXPECT_NE(err.str().find("--queue-capacity"), std::string::npos)
          << err.str();
    }
  }
  std::ostringstream out, err;
  EXPECT_EQ(runMain(smallRun({"--workload", "ticket_queue",
                              "--queue-capacity", "1"}),
                    out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("yes"), std::string::npos) << out.str();
}

TEST(CliDriver, ThreadsFlagDoesNotChangeTheResult) {
  std::ostringstream out1, out2, err;
  EXPECT_EQ(runMain(smallRun({"--csv", "--threads", "1"}), out1, err), 0);
  EXPECT_EQ(runMain(smallRun({"--csv", "--threads", "8"}), out2, err), 0);
  EXPECT_EQ(out1.str(), out2.str())
      << "results must be thread-count independent";
}

TEST(CliDriver, UnsupportedScenarioFailsCleanly) {
  std::ostringstream out, err;
  const int rc =
      runMain({"--adapter", "amo", "--workload", "prodcons"}, out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("not runnable"), std::string::npos) << err.str();
}

// ---- wgen presets through the CLI -----------------------------------------

TEST(CliWgen, PresetRunPrintsLatencyColumns) {
  std::ostringstream out, err;
  const int rc = runMain(smallRun({"--workload", "zipf_hot"}), out, err);
  EXPECT_EQ(rc, 0) << err.str();
  for (const char* col : {"lat-p50", "lat-p95", "lat-p99", "ops/cycle"}) {
    EXPECT_NE(out.str().find(col), std::string::npos) << col << "\n"
                                                      << out.str();
  }
  EXPECT_NE(out.str().find("yes"), std::string::npos) << "sum not verified";
}

TEST(CliWgen, ListShowsEveryPreset) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain({"--list"}, out, err), 0);
  for (const auto& p : wgen::presets()) {
    EXPECT_NE(out.str().find(p.spec.name), std::string::npos)
        << p.spec.name;
  }
}

TEST(CliWgen, ThetaFlagChangesTheMeasurementDeterministically) {
  std::ostringstream flat1, flat2, sharp, err;
  const auto args = [](const char* theta) {
    return smallRun({"--workload", "zipf_hot", "--csv", "--zipf-theta",
                     theta});
  };
  EXPECT_EQ(runMain(args("0.0"), flat1, err), 0) << err.str();
  EXPECT_EQ(runMain(args("0.0"), flat2, err), 0);
  EXPECT_EQ(runMain(args("1.2"), sharp, err), 0);
  EXPECT_EQ(flat1.str(), flat2.str()) << "same flags must reproduce";
  EXPECT_NE(flat1.str(), sharp.str()) << "skew must change the result";
}

TEST(CliWgen, CasPresetOnAmoFailsCleanly) {
  std::ostringstream out, err;
  const int rc =
      runMain({"--adapter", "amo", "--workload", "mixed_cas"}, out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("not runnable"), std::string::npos) << err.str();
}

TEST(CliWgen, HotFractionAboveOneIsAUsableError) {
  std::ostringstream out, err;
  EXPECT_EQ(runMain(smallRun({"--workload", "hotspot1", "--hot-fraction",
                              "1.5"}),
                    out, err),
            2);
  EXPECT_NE(err.str().find("--hot-fraction"), std::string::npos)
      << err.str();
}

TEST(CliWgen, NegativeOverridesAreUsableErrors) {
  // A negative value is an error, not a silent fall-back to the preset.
  for (const auto& [workload, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"hotspot1", "--hot-fraction"}, {"zipf_hot", "--zipf-theta"}}) {
    std::ostringstream out, err;
    EXPECT_EQ(runMain(smallRun({"--workload", workload, flag, "-0.5"}), out,
                      err),
              2)
        << flag << ": " << out.str();
    EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
    EXPECT_EQ(out.str(), "") << flag;
  }
}

TEST(CliWgen, JsonRunCarriesTheLatencyBlock) {
  std::ostringstream out, err;
  const int rc =
      runMain(smallRun({"--workload", "burst", "--json"}), out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_TRUE(test::isValidJson(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"opLatency\""), std::string::npos);
  EXPECT_NE(out.str().find("\"p99\""), std::string::npos);
  EXPECT_NE(out.str().find("\"workload\": \"burst\""), std::string::npos);
}

}  // namespace
}  // namespace colibri::cli
