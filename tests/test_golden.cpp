// Golden-output corpus: every supported CLI scenario (all adapters x all
// registered workloads, including the eight wgen presets and the three
// data-structure workloads), the litmus tables, the scenario listing, a
// sample of --json documents, and the histogram's lock modes (run through
// exp::runOne, since the CLI picks only the RMW mode) are compared
// byte-for-byte against files committed under tests/golden/.
//
// The simulator is bit-deterministic, so any diff here is a real output
// change: either a regression (fix the code) or an intended change —
// regenerate with
//
//   COLIBRI_GOLDEN_REGEN=1 ctest -R test_golden
//
// and commit the updated files with the change that caused them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "exp/json.hpp"
#include "exp/scenario.hpp"

namespace colibri {
namespace {

namespace fs = std::filesystem;

#ifndef COLIBRI_GOLDEN_DIR
#error "COLIBRI_GOLDEN_DIR must point at tests/golden"
#endif

const fs::path kGoldenDir = COLIBRI_GOLDEN_DIR;

bool regenerating() {
  const char* v = std::getenv("COLIBRI_GOLDEN_REGEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/// The small deterministic geometry every golden case but the 4096-core
/// one runs on.
std::vector<std::string> baseArgs() {
  return {"--cores",          "16", "--cores-per-tile", "4",
          "--tiles-per-group", "2",  "--banks-per-tile", "4",
          "--words-per-bank",  "64", "--warmup",         "500",
          "--measure",         "2000"};
}

struct GoldenCase {
  std::string name;  ///< file name under tests/golden/
  std::vector<std::string> args;
  int expectedRc = 0;
};

std::vector<GoldenCase> goldenCases() {
  std::vector<GoldenCase> cases;
  // Every supported adapter x workload pair as CSV.
  for (const auto& s : exp::allScenarios()) {
    if (!s.supported) {
      continue;
    }
    auto args = baseArgs();
    args.insert(args.end(), {"--adapter", s.adapter.name, "--workload",
                             s.workload.name, "--csv"});
    if (s.workload.name == "matmul") {
      args.insert(args.end(), {"--matmul-n", "8"});
    }
    cases.push_back(
        {s.adapter.name + "__" + s.workload.name + ".csv", args});
  }
  // JSON documents (per-rep + aggregate) for a cross-section of workload
  // families on one adapter.
  for (const char* w : {"histogram", "hashtable", "wsdeque", "lockfair",
                        "uniform_fa", "prodcons", "matmul"}) {
    auto args = baseArgs();
    args.insert(args.end(), {"--adapter", "colibri", "--workload", w,
                             "--json", "--reps", "2"});
    if (std::string(w) == "matmul") {
      args.insert(args.end(), {"--matmul-n", "8"});
    }
    cases.push_back({std::string("json__colibri__") + w + ".json", args});
  }
  // Aligned tables (banner, column alignment, aggregate columns) for one
  // workload of each table layout.
  for (const char* w : {"histogram", "msqueue", "prodcons", "matmul",
                        "hashtable", "wsdeque", "lockfair", "zipf_hot"}) {
    auto args = baseArgs();
    args.insert(args.end(),
                {"--adapter", "colibri", "--workload", w, "--reps", "2"});
    if (std::string(w) == "matmul") {
      args.insert(args.end(), {"--matmul-n", "8"});
    }
    cases.push_back({std::string("table__colibri__") + w + ".txt", args});
  }
  // The scale point: 4096 cores in 16 groups of 64 tiles at the default
  // bank geometry, so the layout of per-core and per-bank state is pinned
  // where it is largest.
  cases.push_back({"json__colibri__zipf_hot_4096.json",
                   {"--adapter", "colibri", "--workload", "zipf_hot",
                    "--cores", "4096", "--tiles-per-group", "64", "--warmup",
                    "500", "--measure", "2000", "--json"}});
  // Determinism: re-run a cross-section of scenarios against the *same*
  // golden files, so a second run in this process must reproduce the
  // committed bytes. The two-rep JSON documents also run at one and at
  // four SweepRunner workers: the pool size must not change the output.
  for (const auto& [a, w] :
       std::vector<std::pair<std::string, std::string>>{
           {"colibri", "zipf_hot"},
           {"colibri", "prodcons"},
           {"lrsc_single", "histogram"},
           {"lrscwait", "msqueue"},
           {"amo", "uniform_fa"}}) {
    auto args = baseArgs();
    args.insert(args.end(), {"--adapter", a, "--workload", w, "--csv"});
    cases.push_back({a + "__" + w + ".csv", args});
  }
  for (const char* w : {"histogram", "hashtable"}) {
    for (const char* threads : {"1", "4"}) {
      auto args = baseArgs();
      args.insert(args.end(), {"--adapter", "colibri", "--workload", w,
                               "--json", "--reps", "2", "--threads",
                               threads});
      cases.push_back({std::string("json__colibri__") + w + ".json", args});
    }
  }
  // Litmus: the full fenced matrix, and the unfenced Dekker memory-model
  // probe (which deliberately FAILs its exclusion expectation -> exit 1).
  {
    auto args = baseArgs();
    args.insert(args.end(),
                {"--litmus", "all", "--litmus-matrix", "--csv"});
    cases.push_back({"litmus__matrix.csv", args});
  }
  {
    auto args = baseArgs();
    args.insert(args.end(), {"--adapter", "lrsc_table", "--litmus", "dekker",
                             "--unfenced", "--csv"});
    cases.push_back({"litmus__dekker_unfenced.csv", args, 1});
  }
  cases.push_back({"list.csv", {"--list", "--csv"}});
  return cases;
}

/// One histogram lock mode on one adapter, run through exp::runOne on the
/// golden geometry. The CLI's histogram always runs the adapter's RMW
/// mode, so these pin the lock kernels Fig. 4 and Table II use.
struct LockModeCase {
  std::string adapter;
  std::string lock;  ///< "tas" or "mcs"
  workloads::HistogramMode mode;

  /// File name under tests/golden/.
  [[nodiscard]] std::string name() const {
    return "json__" + adapter + "__histogram_" + lock + ".json";
  }
};

std::vector<LockModeCase> lockModeCases() {
  using workloads::HistogramMode;
  return {
      {"amo", "tas", HistogramMode::kTasLock},
      {"lrsc_single", "tas", HistogramMode::kTasLock},
      {"colibri", "tas", HistogramMode::kTasLock},
      {"colibri", "mcs", HistogramMode::kMcsLock},
      {"lrsc_table", "mcs", HistogramMode::kMcsLock},
  };
}

std::string runLockModeCase(const LockModeCase& c) {
  const auto adapter = exp::findAdapter(c.adapter);
  EXPECT_TRUE(adapter.has_value()) << c.adapter;
  exp::RunSpec spec;
  spec.label = c.adapter + "/histogram-" + c.lock;
  spec.config = exp::configFor(*adapter, 8, arch::SystemConfig::smallTest());
  workloads::HistogramParams p;
  p.mode = c.mode;
  spec.params = p;
  spec.window = workloads::MeasureWindow{500, 2000};
  exp::SweepResult res;
  res.reps.push_back(exp::runOne(spec));
  const auto& r = res.reps.front();
  res.opsPerCycle = exp::Stats::of({r.rate.opsPerCycle});
  res.energyPerOpPj = exp::Stats::of({r.energyPerOpPj});
  res.allVerified = r.verified;
  std::ostringstream out;
  exp::writeJson(out, {spec}, {res});
  return out.str();
}

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Golden, EveryScenarioMatchesItsCommittedOutput) {
  const auto cases = goldenCases();
  ASSERT_GT(cases.size(), 80u);  // 6 adapters x 16 workloads minus amo gaps
  if (regenerating()) {
    fs::create_directories(kGoldenDir);
  }
  for (const auto& c : cases) {
    std::ostringstream out;
    std::ostringstream err;
    const int rc = cli::runMain(c.args, out, err);
    EXPECT_EQ(rc, c.expectedRc) << c.name << "\nstderr: " << err.str();
    const auto path = kGoldenDir / c.name;
    if (regenerating()) {
      std::ofstream f(path, std::ios::binary);
      f << out.str();
      continue;
    }
    ASSERT_TRUE(fs::exists(path))
        << path << " missing — run with COLIBRI_GOLDEN_REGEN=1 and commit";
    EXPECT_EQ(out.str(), readFile(path)) << c.name;
  }
  if (regenerating()) {
    GTEST_SKIP() << "regenerated " << cases.size() << " golden files under "
                 << kGoldenDir;
  }
}

TEST(Golden, HistogramLockModesMatchTheirCommittedOutput) {
  for (const auto& c : lockModeCases()) {
    const auto out = runLockModeCase(c);
    const auto path = kGoldenDir / c.name();
    if (regenerating()) {
      std::ofstream f(path, std::ios::binary);
      f << out;
      continue;
    }
    ASSERT_TRUE(fs::exists(path))
        << path << " missing — run with COLIBRI_GOLDEN_REGEN=1 and commit";
    EXPECT_EQ(out, readFile(path)) << c.name();
  }
}

TEST(Golden, CorpusHasNoStaleFiles) {
  if (regenerating()) {
    GTEST_SKIP();
  }
  ASSERT_TRUE(fs::exists(kGoldenDir));
  std::vector<std::string> expected;
  for (const auto& c : goldenCases()) {
    expected.push_back(c.name);
  }
  for (const auto& c : lockModeCases()) {
    expected.push_back(c.name());
  }
  for (const auto& entry : fs::directory_iterator(kGoldenDir)) {
    const auto name = entry.path().filename().string();
    EXPECT_NE(std::find(expected.begin(), expected.end(), name),
              expected.end())
        << name << " is in tests/golden/ but no case generates it";
  }
}

}  // namespace
}  // namespace colibri
