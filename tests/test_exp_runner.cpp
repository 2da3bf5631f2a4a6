// Experiment-layer tests: RunSpec/runOne dispatch, per-rep seed
// derivation, SweepRunner determinism (bit-identical results for any
// thread count, submission-order preservation, bounded concurrency),
// aggregate stats, and the JSON serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/system.hpp"
#include "exp/json.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "report/json.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"
#include "wgen/presets.hpp"

namespace colibri::exp {
namespace {

constexpr workloads::MeasureWindow kTestWindow{200, 1000};

RunSpec histogramSpec(const std::string& adapterName, std::uint32_t bins) {
  const auto adapter = findAdapter(adapterName);
  EXPECT_TRUE(adapter.has_value()) << adapterName;
  RunSpec spec;
  spec.label = adapterName + "/histogram/" + std::to_string(bins);
  spec.config = configFor(*adapter, 8, arch::SystemConfig::smallTest());
  workloads::HistogramParams p;
  p.bins = bins;
  p.mode = histogramModeFor(*adapter);
  spec.params = p;
  spec.window = kTestWindow;
  return spec;
}

RunSpec queueSpec(const std::string& adapterName) {
  const auto adapter = findAdapter(adapterName);
  EXPECT_TRUE(adapter.has_value()) << adapterName;
  RunSpec spec;
  spec.label = adapterName + "/msqueue";
  spec.config = configFor(*adapter, 8, arch::SystemConfig::smallTest());
  workloads::QueueParams p;
  p.variant = queueVariantFor(*adapter);
  spec.params = p;
  spec.window = kTestWindow;
  return spec;
}

RunSpec wgenSpec(const std::string& adapterName, const char* presetName) {
  const auto adapter = findAdapter(adapterName);
  EXPECT_TRUE(adapter.has_value()) << adapterName;
  const auto* preset = wgen::findPreset(presetName);
  EXPECT_NE(preset, nullptr) << presetName;
  RunSpec spec;
  spec.label = adapterName + "/" + presetName;
  spec.workload = presetName;
  spec.config = configFor(*adapter, 8, arch::SystemConfig::smallTest());
  wgen::WgenParams p;
  p.kernel = preset->spec;
  spec.params = p;
  spec.window = kTestWindow;
  return spec;
}

/// The sweep suite: a mix of workloads and adapters, all on the 16-core
/// test geometry so the whole file stays fast.
std::vector<RunSpec> testSpecs() {
  std::vector<RunSpec> specs = {
      histogramSpec("colibri", 4),  histogramSpec("lrsc_single", 2),
      histogramSpec("amo", 8),      histogramSpec("lrscwait", 1),
      queueSpec("colibri"),         queueSpec("lrsc_single"),
      wgenSpec("colibri", "zipf_hot"),
  };
  return specs;
}

void expectBitIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.rate.opsPerCycle, b.rate.opsPerCycle);  // exact, not NEAR
  EXPECT_EQ(a.rate.opsInWindow, b.rate.opsInWindow);
  EXPECT_EQ(a.rate.perCoreWindowOps, b.rate.perCoreWindowOps);
  EXPECT_EQ(a.rate.fairnessJain, b.rate.fairnessJain);
  EXPECT_EQ(a.rate.counters.instructions, b.rate.counters.instructions);
  EXPECT_EQ(a.rate.counters.bankAccesses, b.rate.counters.bankAccesses);
  EXPECT_EQ(a.rate.counters.sleepCycles, b.rate.counters.sleepCycles);
  EXPECT_EQ(a.rate.counters.netMessages, b.rate.counters.netMessages);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.energyPerOpPj, b.energyPerOpPj);
  EXPECT_EQ(a.opLatency.count, b.opLatency.count);
  EXPECT_EQ(a.opLatency.p99, b.opLatency.p99);
}

TEST(ExpRepSeed, RepZeroIsTheBaseSeed) {
  EXPECT_EQ(repSeed(0xC011B21, 0), 0xC011B21u);
  EXPECT_EQ(repSeed(42, 0), 42u);
}

TEST(ExpRepSeed, LaterRepsUseTheSplitmixStream) {
  const std::uint64_t base = 0xC011B21;
  // The documented derivation: splitmix64 of base ^ (golden-gamma * rep).
  std::uint64_t sm = base ^ (0x9e3779b97f4a7c15ULL * 3);
  EXPECT_EQ(repSeed(base, 3), sim::splitmix64(sm));

  std::vector<std::uint64_t> seen;
  for (std::uint32_t r = 0; r < 8; ++r) {
    const auto s = repSeed(base, r);
    for (const auto prev : seen) {
      EXPECT_NE(s, prev) << "rep " << r << " collided";
    }
    seen.push_back(s);
  }
}

TEST(ExpRunOne, MatchesADirectWorkloadRun) {
  const auto spec = histogramSpec("colibri", 4);
  const auto viaExp = runOne(spec);

  auto cfg = spec.config;
  cfg.seed = spec.seed;
  arch::System sys(cfg);
  auto p = std::get<workloads::HistogramParams>(spec.params);
  p.window = spec.window;
  const auto direct = workloads::runHistogram(sys, p);

  EXPECT_EQ(viaExp.rate.opsPerCycle, direct.rate.opsPerCycle);
  EXPECT_EQ(viaExp.rate.opsInWindow, direct.rate.opsInWindow);
  EXPECT_EQ(viaExp.rate.perCoreWindowOps, direct.rate.perCoreWindowOps);
  EXPECT_EQ(viaExp.verified, direct.sumVerified);
  EXPECT_EQ(viaExp.workload, "histogram");
}

TEST(ExpRunOne, WorkloadNameHonorsTheSpecOverride) {
  // QueueParams cannot distinguish msqueue-on-amo (kLock fallback) from
  // the ticket_queue scenario — the spec's explicit name must win.
  auto spec = queueSpec("amo");
  EXPECT_EQ(std::get<workloads::QueueParams>(spec.params).variant,
            workloads::QueueVariant::kLock);
  EXPECT_EQ(workloadNameFor(spec), "msqueue");
  spec.workload = "ticket_queue";
  EXPECT_EQ(workloadNameFor(spec), "ticket_queue");
  EXPECT_EQ(runOne(spec).workload, "ticket_queue");
}

TEST(ExpRunOne, ProdConsReportsTotalAndWindowItems) {
  const auto adapter = findAdapter("colibri");
  RunSpec spec;
  spec.config = configFor(*adapter, 8, arch::SystemConfig::smallTest());
  workloads::ProdConsParams p;
  p.producers = 4;
  p.consumers = 4;
  spec.params = p;
  spec.window = kTestWindow;
  const auto r = runOne(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.rate.opsInWindow, 0u);
  // Total consumption includes warmup and the drain phase.
  EXPECT_GT(r.extra("itemsConsumed").value(),
            static_cast<double>(r.rate.opsInWindow));
  EXPECT_GT(r.rate.counters.instructions, 0u);
}

TEST(ExpRunOne, FillsModelOutputs) {
  const auto r = runOne(histogramSpec("colibri", 4));
  EXPECT_GT(r.tileAreaKge, 0.0);
  EXPECT_GT(r.averagePowerMw, 0.0);
  EXPECT_GT(r.energyPerOpPj, 0.0);
  EXPECT_NEAR(r.energy.totalPj() / static_cast<double>(r.rate.opsInWindow),
              r.energyPerOpPj, 1e-9);
}

TEST(ExpSweepRunner, BitIdenticalAcrossThreadCounts) {
  const auto specs = testSpecs();
  SweepRunner serial(1);
  SweepRunner wide(8);
  const auto a = serial.run(specs);
  const auto b = wide.run(specs);
  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(a[i].reps.size(), 1u);
    ASSERT_EQ(b[i].reps.size(), 1u);
    expectBitIdentical(a[i].primary(), b[i].primary());
  }
}

TEST(ExpSweepRunner, ResultsComeBackInSubmissionOrder) {
  const auto specs = testSpecs();
  SweepRunner runner(4);
  const auto swept = runner.run(specs);
  ASSERT_EQ(swept.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto individual = runOne(specs[i]);
    EXPECT_EQ(swept[i].primary().label, specs[i].label);
    expectBitIdentical(swept[i].primary(), individual);
  }
}

TEST(ExpSweepRunner, RepetitionsDeriveSeedsAndAggregate) {
  auto spec = histogramSpec("colibri", 4);
  spec.repetitions = 3;
  SweepRunner runner(4);
  const auto res = runner.run({spec}).front();
  ASSERT_EQ(res.reps.size(), 3u);

  std::vector<double> rates;
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(res.reps[r].seed, repSeed(spec.seed, r));
    expectBitIdentical(res.reps[r], runOne(spec, r));
    rates.push_back(res.reps[r].rate.opsPerCycle);
  }
  // Distinct seeds should actually vary the measurement.
  EXPECT_NE(res.reps[0].seed, res.reps[1].seed);

  const auto stats = Stats::of(rates);
  EXPECT_EQ(res.opsPerCycle.n, 3u);
  EXPECT_DOUBLE_EQ(res.opsPerCycle.mean, stats.mean);
  EXPECT_DOUBLE_EQ(res.opsPerCycle.stddev, stats.stddev);
  EXPECT_LE(res.opsPerCycle.min, res.opsPerCycle.mean);
  EXPECT_LE(res.opsPerCycle.mean, res.opsPerCycle.max);
  EXPECT_TRUE(res.allVerified);
}

TEST(ExpSweepRunner, MapIsOrderPreservingAndBounded) {
  SweepRunner runner(3);
  EXPECT_EQ(runner.threads(), 3u);

  std::atomic<int> active{0};
  std::atomic<int> maxActive{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 24; ++i) {
    jobs.push_back([i, &active, &maxActive] {
      const int now = ++active;
      int seen = maxActive.load();
      while (now > seen && !maxActive.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --active;
      return i * i;
    });
  }
  const auto out = runner.map(std::move(jobs));
  ASSERT_EQ(out.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
  EXPECT_LE(maxActive.load(), 3) << "pool exceeded its thread bound";
  EXPECT_EQ(active.load(), 0);
}

TEST(ExpSweepRunner, DefaultPoolUsesHardwareConcurrency) {
  SweepRunner runner;
  EXPECT_GE(runner.threads(), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(runner.threads(), hw);
  }
}

TEST(ExpSweepRunner, JobExceptionsAreRethrownAfterTheBatch) {
  SweepRunner runner(2);
  std::atomic<int> completed{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i, &completed]() -> int {
      if (i == 3) {
        throw std::runtime_error("job 3 failed");
      }
      ++completed;
      return i;
    });
  }
  EXPECT_THROW((void)runner.map(std::move(jobs)), std::runtime_error);
  // The failing job must not have torn down the pool mid-batch.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ExpStats, OfComputesSampleStatistics) {
  const auto s = Stats::of({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.2909944487358056, 1e-12);  // sqrt(5/3)
  EXPECT_EQ(s.n, 4u);

  const auto one = Stats::of({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);

  const auto none = Stats::of({});
  EXPECT_EQ(none.n, 0u);
}

TEST(ExpJson, SerializesASweepAsValidJson) {
  auto spec = histogramSpec("colibri", 2);
  spec.repetitions = 2;
  const std::vector<RunSpec> specs = {spec, queueSpec("colibri"),
                                      wgenSpec("colibri", "hotspot1")};
  SweepRunner runner(2);
  const auto results = runner.run(specs);

  std::ostringstream os;
  writeJson(os, specs, results);
  const std::string json = os.str();

  EXPECT_TRUE(test::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"colibri-exp-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"stddev\""), std::string::npos);
  EXPECT_NE(json.find("\"msqueue\""), std::string::npos);
  // wgen runs (and only they) carry the per-op latency block.
  EXPECT_NE(json.find("\"opLatency\""), std::string::npos);
  EXPECT_NE(json.find("\"hotspot1\""), std::string::npos);
}

TEST(ExpJson, InterferenceRunWritesItsExtrasInOrder) {
  // The CLI cannot reach `interference` (no golden covers it), so pin its
  // per-rep extras here: duration, macs, then pollerUpdates.
  const auto adapter = findAdapter("colibri");
  RunSpec spec;
  spec.config = configFor(*adapter, 8, arch::SystemConfig::smallTest());
  workloads::InterferenceParams p;
  p.matmul.n = 8;
  p.matmul.workers = {0, 1, 2, 3};
  for (sim::CoreId c = 4; c < 16; ++c) {
    p.pollers.push_back(c);
  }
  spec.params = p;
  const std::vector<RunSpec> specs = {spec};
  const auto results = SweepRunner(1).run(specs);
  ASSERT_TRUE(results.front().allVerified);

  std::ostringstream os;
  writeJson(os, specs, results);
  const std::string json = os.str();
  EXPECT_TRUE(test::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"workload\": \"interference\""), std::string::npos);
  const auto duration = json.find("\"duration\": ");
  const auto macs = json.find("\"macs\": 512,");
  const auto pollers = json.find("\"pollerUpdates\": ");
  ASSERT_NE(duration, std::string::npos) << json;
  ASSERT_NE(macs, std::string::npos) << json;
  ASSERT_NE(pollers, std::string::npos) << json;
  EXPECT_LT(duration, macs);
  EXPECT_LT(macs, pollers);
  EXPECT_LT(pollers, json.find("\"counters\""));
}

TEST(ExpJson, WriterEscapesAndBalances) {
  std::ostringstream os;
  report::JsonWriter w(os);
  w.beginObject();
  w.kv("quote\"back\\slash", "line\nbreak\ttab");
  w.key("nested").beginArray();
  w.value(1.5).value(false).value(std::uint64_t{18446744073709551615ULL});
  w.endArray();
  w.endObject();
  EXPECT_TRUE(w.complete());
  EXPECT_TRUE(test::isValidJson(os.str())) << os.str();
}

TEST(ExpScenario, HelpersMatchTheAdapterContract) {
  // Every adapter runs the RMW kernel; the adapter picks its flavor.
  for (const auto& a : adapters()) {
    EXPECT_EQ(histogramModeFor(a), workloads::HistogramMode::kRmw) << a.name;
  }
  EXPECT_EQ(queueVariantFor(*findAdapter("amo")),
            workloads::QueueVariant::kLock);

  // configFor: ideal capacity tracks the core count; explicit q sticks.
  const auto base = arch::SystemConfig::smallTest();
  const auto ideal = configFor(*findAdapter("lrscwait_ideal"), 8, base);
  EXPECT_EQ(ideal.lrscWaitQueueCapacity, base.numCores);
  const auto q = configFor(*findAdapter("lrscwait"), 3, base);
  EXPECT_EQ(q.lrscWaitQueueCapacity, 3u);
  EXPECT_EQ(q.adapter, arch::AdapterKind::kLrscWait);
  const auto zero = configFor(*findAdapter("lrscwait"), 0, base);
  EXPECT_EQ(zero.lrscWaitQueueCapacity, base.numCores);
}

}  // namespace
}  // namespace colibri::exp
