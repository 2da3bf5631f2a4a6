// Observability layer: the metric registry's counters, the span tracer's
// Chrome output, and the end-to-end determinism contract — sink bytes are
// identical across reruns and SweepRunner thread counts, while stdout
// stays byte-identical whether or not a sink is attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "exp/run.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"
#include "test_util.hpp"
#include "wgen/presets.hpp"

namespace colibri {
namespace {

TEST(ObsRegistry, CountersAccumulate) {
  obs::Registry reg;
  const auto a = reg.counter("a");
  const auto b = reg.counter("b");
  reg.add(a);
  reg.add(a, 4);
  EXPECT_EQ(reg.counterTotal(a), 5u);
  EXPECT_EQ(reg.counterTotal(b), 0u);

  // Registering more rows later keeps the values already counted.
  const auto h = reg.histogram("h");
  reg.add(b, 7);
  EXPECT_EQ(reg.counterTotal(a), 5u);
  EXPECT_EQ(reg.counterTotal(b), 7u);
  EXPECT_EQ(reg.bucketTotal(h, 0), 0u);
}

TEST(ObsRegistry, HistogramBucketsAreLog2) {
  obs::Registry reg;
  const auto h = reg.histogram("lat");
  EXPECT_EQ(obs::Registry::bucketOf(0), 0u);
  EXPECT_EQ(obs::Registry::bucketOf(1), 1u);
  EXPECT_EQ(obs::Registry::bucketOf(2), 2u);
  EXPECT_EQ(obs::Registry::bucketOf(3), 2u);
  EXPECT_EQ(obs::Registry::bucketOf(4), 3u);
  EXPECT_EQ(obs::Registry::bucketOf(~0ULL),
            obs::Registry::kHistogramBuckets - 1);

  reg.record(h, 0);
  reg.record(h, 3);
  reg.record(h, 3);
  EXPECT_EQ(reg.bucketTotal(h, 0), 1u);
  EXPECT_EQ(reg.bucketTotal(h, 2), 2u);
  EXPECT_EQ(reg.bucketTotal(h, 1), 0u);
}

TEST(ObsRegistry, GaugesProbeUntilCleared) {
  obs::Registry reg;
  int x = 41;
  const auto g = reg.gauge("x", [&x] { return static_cast<double>(x); });
  x = 42;
  EXPECT_EQ(reg.gaugeValue(g.cell), 42.0);
  EXPECT_TRUE(reg.probesLive());
  reg.clearProbes();
  EXPECT_FALSE(reg.probesLive());
  EXPECT_THROW((void)reg.gaugeValue(g.cell), sim::InvariantViolation);
}

TEST(ObsTracer, EmitsValidChromeTraceJson) {
  obs::Tracer tr;
  tr.bind(2, 4);
  tr.onIssue(0, "load", 10);
  tr.onBankArrive(0, 3, 14, 15);
  tr.onRespond(0, 18);
  tr.onComplete(0, 22);
  tr.onPosted(1, "store", 11);
  tr.onPhase(0, "rmw", 5, 30);
  EXPECT_EQ(tr.spanCount(), 1u);

  std::ostringstream os;
  tr.writeChromeTrace(os);
  const std::string doc = os.str();
  EXPECT_TRUE(test::isValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"net.req\""), std::string::npos);
  EXPECT_NE(doc.find("\"net.resp\""), std::string::npos);
  EXPECT_NE(doc.find("simulated-cycles"), std::string::npos);
  // The parent span, the bank-track mirror, the instant, and the phase.
  EXPECT_NE(doc.find("\"load\""), std::string::npos);
  EXPECT_NE(doc.find("\"store\""), std::string::npos);
  EXPECT_NE(doc.find("\"rmw\""), std::string::npos);
}

TEST(ObsTracer, SampleEveryKeepsEveryKthOpPerCore) {
  obs::Tracer tr(2);
  tr.bind(1, 1);
  for (int i = 0; i < 6; ++i) {
    tr.onIssue(0, "load", 10 * i);
    tr.onBankArrive(0, 0, 10 * i + 1, 10 * i + 2);
    tr.onRespond(0, 10 * i + 3);
    tr.onComplete(0, 10 * i + 4);
  }
  EXPECT_EQ(tr.spanCount(), 3u);  // ops 0, 2, 4
}

exp::RunSpec smallSpec() {
  exp::RunSpec spec;
  spec.label = "obs-test";
  spec.config = arch::SystemConfig::smallTest();
  spec.window = workloads::MeasureWindow{200, 800};
  spec.workload = "zipf_hot";
  const auto* preset = wgen::findPreset("zipf_hot");
  EXPECT_NE(preset, nullptr);
  wgen::WgenParams p;
  p.kernel = preset->spec;
  spec.params = p;
  return spec;
}

std::string metricsCsv() {
  obs::Recorder::Config rc;
  rc.sampleInterval = 250;
  obs::Recorder rec(rc);
  auto spec = smallSpec();
  spec.config.recorder = &rec;
  const auto res = exp::runOne(spec);
  EXPECT_TRUE(res.verified);
  std::ostringstream os;
  rec.writeMetricsCsv(os);
  return os.str();
}

TEST(ObsRecorder, MetricsCsvIsByteIdenticalAcrossReruns) {
  const std::string first = metricsCsv();
  EXPECT_NE(first.find("cycle,"), std::string::npos);
  EXPECT_NE(first.find("core.issuedOps"), std::string::npos);
  EXPECT_NE(first.find("sync.rmwRetries"), std::string::npos);
  // Histograms are emitted once, at the end, never as CSV columns.
  EXPECT_EQ(first.find("core.opLatency"), std::string::npos);
  EXPECT_GT(std::count(first.begin(), first.end(), '\n'), 3);

  EXPECT_EQ(metricsCsv(), first) << "rerun changed sink bytes";
}

// The typed read returns exactly what --stats prints for every counter
// and gauge of a finished run, and nothing for a histogram or a name no
// metric has.
TEST(ObsRecorder, ValueReadsWhatStatsPrints) {
  obs::Recorder rec;
  auto spec = smallSpec();
  spec.config.recorder = &rec;
  ASSERT_TRUE(exp::runOne(spec).verified);
  std::ostringstream os;
  rec.printStats(os);
  std::istringstream is(os.str());
  std::string line;
  int checked = 0;
  while (std::getline(is, line)) {
    const auto eq = line.find(" = ");
    ASSERT_EQ(line.rfind("obs: ", 0), 0u) << line;
    ASSERT_NE(eq, std::string::npos) << line;
    const std::string name = line.substr(5, eq - 5);
    if (name.find('[') != std::string::npos) {
      continue;  // a histogram bucket
    }
    EXPECT_EQ(rec.value(name), std::stod(line.substr(eq + 3))) << line;
    ++checked;
  }
  EXPECT_GT(checked, 10);
  EXPECT_GT(rec.value("engine.executedEvents").value_or(0), 0.0);
  EXPECT_EQ(rec.value("core.opLatency"), std::nullopt);
  EXPECT_EQ(rec.value("no.such.metric"), std::nullopt);
}

TEST(ObsRecorder, SecondRunOnSameRecorderIsRejected) {
  obs::Recorder rec;
  auto spec = smallSpec();
  spec.config.recorder = &rec;
  (void)exp::runOne(spec);
  EXPECT_THROW((void)exp::runOne(spec), sim::InvariantViolation);
}

TEST(ObsRecorder, RepsBeyondZeroRunUnobserved) {
  obs::Recorder rec;
  auto spec = smallSpec();
  spec.config.recorder = &rec;
  // rep != 0 must null the recorder inside runOne — the same Recorder can
  // then still observe rep 0 afterwards.
  (void)exp::runOne(spec, 1);
  const auto res = exp::runOne(spec, 0);
  EXPECT_TRUE(res.verified);
  EXPECT_TRUE(rec.sampledAnything());
}

// --- CLI end-to-end ------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

struct CliRun {
  int rc = 0;
  std::string out;
  std::string err;
};

CliRun runCli(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun r;
  r.rc = cli::runMain(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::vector<std::string> smallArgs() {
  return {"--workload", "zipf_hot", "--cores", "64", "--tiles-per-group",
          "4",          "--warmup", "200",     "--measure", "800"};
}

std::string tmpPath(const char* name) {
  return testing::TempDir() + name;
}

TEST(ObsCli, SinksAreIdenticalAcrossRerunsAndSweepThreads) {
  // The first two runs are reruns at one sweep thread.
  const char* const sweepThreads[] = {"1", "1", "4"};
  std::string baseCsv;
  std::string baseTrace;
  for (const char* threads : sweepThreads) {
    const std::string csv = tmpPath("obs_m.csv");
    const std::string trace = tmpPath("obs_t.json");
    auto args = smallArgs();
    args.emplace_back("--threads");
    args.emplace_back(threads);
    args.emplace_back("--metrics-csv=" + csv);
    args.emplace_back("--trace=" + trace);
    args.emplace_back("--metrics-interval=250");
    const auto r = runCli(args);
    ASSERT_EQ(r.rc, 0) << r.err;
    const std::string csvBytes = slurp(csv);
    const std::string traceBytes = slurp(trace);
    EXPECT_TRUE(test::isValidJson(traceBytes));
    if (baseCsv.empty()) {
      baseCsv = csvBytes;
      baseTrace = traceBytes;
      continue;
    }
    EXPECT_EQ(csvBytes, baseCsv) << "metrics CSV differs at threads="
                                 << threads;
    EXPECT_EQ(traceBytes, baseTrace) << "trace differs at threads="
                                     << threads;
  }
}

TEST(ObsCli, AttachingSinksLeavesStdoutUntouched) {
  // Table mode.
  const auto plain = runCli(smallArgs());
  ASSERT_EQ(plain.rc, 0) << plain.err;
  {
    auto args = smallArgs();
    args.emplace_back("--metrics-csv=" + tmpPath("obs_so.csv"));
    args.emplace_back("--trace=" + tmpPath("obs_so.json"));
    const auto sink = runCli(args);
    ASSERT_EQ(sink.rc, 0) << sink.err;
    EXPECT_EQ(sink.out, plain.out);
  }
  // JSON mode: a trace-only sink must not grow the document either.
  auto jsonArgs = smallArgs();
  jsonArgs.emplace_back("--json");
  const auto plainJson = runCli(jsonArgs);
  ASSERT_EQ(plainJson.rc, 0) << plainJson.err;
  EXPECT_EQ(plainJson.out.find("timeseries"), std::string::npos);
  {
    auto args = jsonArgs;
    args.emplace_back("--trace=" + tmpPath("obs_sj.json"));
    const auto sink = runCli(args);
    ASSERT_EQ(sink.rc, 0) << sink.err;
    EXPECT_EQ(sink.out, plainJson.out);
  }
}

TEST(ObsCli, MetricsSinkAddsTimeseriesBlockToJson) {
  auto args = smallArgs();
  args.emplace_back("--json");
  args.emplace_back("--metrics-csv=" + tmpPath("obs_ts.csv"));
  args.emplace_back("--metrics-interval=250");
  const auto r = runCli(args);
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_TRUE(test::isValidJson(r.out));
  EXPECT_NE(r.out.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(r.out.find("\"interval\": 250"), std::string::npos);
  EXPECT_NE(r.out.find("\"core.opLatency\""), std::string::npos);
  EXPECT_NE(r.out.find("\"samples\""), std::string::npos);
}

TEST(ObsCli, StatsRoutesThroughRegistry) {
  auto args = smallArgs();
  args.emplace_back("--stats");
  const auto r = runCli(args);
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.err.find("obs: core.issuedOps = "), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("obs: core.opLatency["), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("obs: engine.executedEvents = "), std::string::npos)
      << r.err;
  // --stats tolerates --reps > 1 (rep 0 is the observed one).

  auto reps = smallArgs();
  reps.emplace_back("--stats");
  reps.emplace_back("--reps=2");
  EXPECT_EQ(runCli(reps).rc, 0);
}

// Every metric reaches every sink: the CSV columns are exactly the
// non-histogram metrics --stats prints, in the same order.
TEST(ObsCli, MetricsCsvColumnsMatchStatsMetrics) {
  const std::string csv = tmpPath("obs_cols.csv");
  auto args = smallArgs();
  for (const char* extra : {"--stats", "--fault", "chaos"}) {
    args.emplace_back(extra);
  }
  args.emplace_back("--metrics-csv=" + csv);
  const auto r = runCli(args);
  ASSERT_EQ(r.rc, 0) << r.err;

  std::vector<std::string> statsNames;
  std::istringstream errLines(r.err);
  for (std::string line; std::getline(errLines, line);) {
    ASSERT_EQ(line.rfind("obs: ", 0), 0u) << line;
    const std::string name = line.substr(5, line.find(" = ") - 5);
    if (name.find('[') == std::string::npos) {
      statsNames.push_back(name);
    }
  }
  const std::string body = slurp(csv);
  std::istringstream header(body.substr(0, body.find('\n')));
  std::vector<std::string> csvNames;
  for (std::string col; std::getline(header, col, ',');) {
    csvNames.push_back(col);
  }
  ASSERT_FALSE(csvNames.empty());
  EXPECT_EQ(csvNames.front(), "cycle");
  csvNames.erase(csvNames.begin());
  EXPECT_EQ(csvNames, statsNames);
  EXPECT_NE(std::find(csvNames.begin(), csvNames.end(), "fault.seed"),
            csvNames.end());
}

TEST(ObsCli, SinkFlagMisuseIsRejected) {
  {
    auto args = smallArgs();
    args.emplace_back("--metrics-csv=" + tmpPath("obs_rej.csv"));
    args.emplace_back("--reps=2");
    const auto r = runCli(args);
    EXPECT_EQ(r.rc, 2);
    EXPECT_NE(r.err.find("--reps 1"), std::string::npos) << r.err;
  }
  {
    auto args = smallArgs();
    args.emplace_back("--trace=" + tmpPath("obs_rej.json"));
    args.emplace_back("--trace-sample=0");
    EXPECT_EQ(runCli(args).rc, 2);
  }
  {
    const auto r = runCli({"--litmus", "dekker",
                           "--trace=" + tmpPath("obs_rej2.json")});
    EXPECT_EQ(r.rc, 2);
    EXPECT_NE(r.err.find("litmus"), std::string::npos) << r.err;
  }
}

TEST(ObsCli, TraceSampleThinsTheTraceDeterministically) {
  auto traceOf = [&](const char* sample) {
    const std::string path = tmpPath("obs_k.json");
    auto args = smallArgs();
    args.emplace_back("--trace=" + path);
    args.emplace_back(std::string("--trace-sample=") + sample);
    const auto r = runCli(args);
    EXPECT_EQ(r.rc, 0) << r.err;
    return slurp(path);
  };
  const auto full = traceOf("1");
  const auto thin = traceOf("8");
  EXPECT_TRUE(test::isValidJson(thin));
  EXPECT_LT(thin.size(), full.size() / 2);
  EXPECT_EQ(traceOf("8"), thin) << "sampled trace must stay deterministic";
}

}  // namespace
}  // namespace colibri
