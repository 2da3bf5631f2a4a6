// Fault-injection + watchdog tests: the fault subsystem's determinism
// contract (decisions are stateless hashes, so reruns and every
// SweepRunner --threads value produce bit-identical schedules and
// counts), the graceful-degradation guarantee (faults cost retries, never
// correctness), and the watchdog's hang diagnosis (a stranded LR is caught
// in bounded simulated time with a blame report naming the owning core and
// the reservation slot).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "cli/driver.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "fault/fault.hpp"
#include "fault/watchdog.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sync/atomic.hpp"
#include "sync/backoff.hpp"

namespace colibri::fault {
namespace {

// 16 cores in 2 groups, so remote-group traffic (and its net-delay
// faults) is part of every run.
arch::SystemConfig twoGroups(arch::AdapterKind adapter) {
  arch::SystemConfig c;
  c.numCores = 16;
  c.coresPerTile = 4;
  c.tilesPerGroup = 2;
  c.banksPerTile = 4;
  c.wordsPerBank = 64;
  c.adapter = adapter;
  return c;
}

sim::Task incrementer(arch::System& sys, arch::Core& core, sim::Addr a,
                      int iters, sync::RmwFlavor flavor) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff bo(sync::BackoffPolicy::fixed(32), rng);
  for (int i = 0; i < iters; ++i) {
    const auto r = co_await sync::fetchAdd(core, flavor, a, 1, bo);
    EXPECT_TRUE(r.performed);
  }
}

struct FaultedRun {
  std::vector<sim::DispatchRecord> trace;
  sim::Word finalValue = 0;
  FaultCounters counters{};
  std::uint64_t faultSeed = 0;
};

// Run the contended incrementer under a fault config and capture the
// engine's full dispatch stream — the strongest determinism check: any
// reordering of any event at all fails the comparison.
FaultedRun runFaulted(arch::SystemConfig cfg, const FaultConfig& fc,
                      sync::RmwFlavor flavor, int iters) {
  cfg.fault = fc;
  arch::System sys(cfg);
  FaultedRun out;
  sys.engine().setTrace(&out.trace);
  const auto a = sys.allocator().allocGlobal(1);
  for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
    sys.spawn(c, incrementer(sys, sys.core(c), a, iters, flavor));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(sys.allTasksDone());
  out.finalValue = sys.peek(a);
  out.counters = sys.faultCounters();
  out.faultSeed = sys.faultSeed();
  return out;
}

void expectSameRun(const FaultedRun& a, const FaultedRun& b,
                   const std::string& label) {
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i].when, b.trace[i].when)
        << label << ": dispatch " << i << " cycle diverged";
    ASSERT_EQ(a.trace[i].seq, b.trace[i].seq)
        << label << ": dispatch " << i << " sequence diverged (when="
        << a.trace[i].when << ")";
  }
  EXPECT_EQ(a.finalValue, b.finalValue) << label;
  EXPECT_EQ(a.faultSeed, b.faultSeed) << label;
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_EQ(a.counters.injected[s], b.counters.injected[s])
        << label << ": site " << toString(static_cast<Site>(s));
  }
}

sync::RmwFlavor flavorFor(arch::AdapterKind adapter) {
  switch (adapter) {
    case arch::AdapterKind::kAmoOnly:
      return sync::RmwFlavor::kAmo;
    case arch::AdapterKind::kLrscWait:
    case arch::AdapterKind::kColibri:
      return sync::RmwFlavor::kLrscWait;
    default:
      return sync::RmwFlavor::kLrsc;
  }
}

TEST(FaultConfigTest, DefaultIsDisabledAndValid) {
  const FaultConfig fc;
  EXPECT_FALSE(fc.enabled());
  EXPECT_NO_THROW(fc.validate());
  // A default System carries no plan and reports zero everywhere.
  arch::System sys(twoGroups(arch::AdapterKind::kLrscSingle));
  EXPECT_FALSE(sys.faultActive());
  EXPECT_EQ(sys.faultSeed(), 0u);
  EXPECT_EQ(sys.faultCounters().total(), 0u);
}

TEST(FaultConfigTest, ValidateRejectsBadInputs) {
  FaultConfig fc;
  fc.scFailP = 1.5;  // probability out of [0, 1]
  EXPECT_THROW(fc.validate(), sim::InvariantViolation);
  fc = FaultConfig{};
  fc.netDelayP = 0.1;  // nonzero probability needs a nonzero magnitude
  fc.netDelayMax = 0;
  EXPECT_THROW(fc.validate(), sim::InvariantViolation);
  fc = FaultConfig{};
  fc.stallP = -0.1;
  EXPECT_THROW(fc.validate(), sim::InvariantViolation);
}

TEST(FaultConfigTest, ProfilesAreRegisteredAndValid) {
  const auto& all = profiles();
  ASSERT_EQ(all.size(), 4u);
  for (const char* name : {"net_jitter", "sc_storm", "evict_churn", "chaos"}) {
    const Profile* p = findProfile(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name, name);
    EXPECT_TRUE(p->config.enabled()) << name;
    EXPECT_NO_THROW(p->config.validate()) << name;
  }
  EXPECT_EQ(findProfile("off"), nullptr);
  EXPECT_EQ(findProfile("nonsense"), nullptr);
}

// The decision engine itself is a pure function of (seed, site, entities,
// cycle): two independent plans with the same config agree decision for
// decision, and magnitudes stay in [1, max].
TEST(FaultPlanTest, DecisionsAreStatelessAndBounded) {
  FaultConfig fc = findProfile("chaos")->config;
  fc.seed = 0xFEEDFACE;
  FaultPlan a(fc);
  FaultPlan b(fc);
  std::uint64_t fired = 0;
  for (sim::CoreId core = 0; core < 8; ++core) {
    for (sim::BankId bank = 0; bank < 8; ++bank) {
      for (sim::Cycle at = 0; at < 200; ++at) {
        const auto da = a.netDelay(core, bank, false, at);
        EXPECT_EQ(da, b.netDelay(core, bank, false, at));
        EXPECT_LE(da, fc.netDelayMax);
        const auto sa = a.stall(bank, core, at);
        EXPECT_EQ(sa, b.stall(bank, core, at));
        EXPECT_LE(sa, fc.stallMax);
        EXPECT_EQ(a.scFail(bank, core, 4, at), b.scFail(bank, core, 4, at));
        EXPECT_EQ(a.evict(bank, core, at), b.evict(bank, core, at));
        EXPECT_EQ(a.evictVictim(bank, at, 7), b.evictVictim(bank, at, 7));
        EXPECT_LT(a.evictVictim(bank, at, 7), 7u);
        fired += da + sa;
      }
    }
  }
  EXPECT_GT(fired, 0u) << "chaos probabilities never fired in 12800 trials";
  // Identical histories => identical counters.
  const auto ca = a.counters();
  const auto cb = b.counters();
  EXPECT_GT(ca.total(), 0u);
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_EQ(ca.injected[s], cb.injected[s]);
  }
  // The request and response directions of a hop are distinct decisions.
  bool differs = false;
  for (sim::Cycle at = 0; at < 2000 && !differs; ++at) {
    differs = a.netDelay(0, 0, false, at) != a.netDelay(0, 0, true, at);
  }
  EXPECT_TRUE(differs);
}

// The headline determinism contract: for every profile x adapter combo,
// a rerun reproduces the dispatch stream record for record, with
// identical results and fault counts.
TEST(FaultPlanTest, EveryProfileIsDeterministicAcrossReruns) {
  for (const Profile& profile : profiles()) {
    for (const auto adapter :
         {arch::AdapterKind::kLrscSingle, arch::AdapterKind::kLrscTable,
          arch::AdapterKind::kLrscWait, arch::AdapterKind::kColibri}) {
      const auto flavor = flavorFor(adapter);
      const auto cfg = twoGroups(adapter);
      const std::string label = profile.name + std::string(" x ") +
                                arch::toString(adapter);
      const auto seq = runFaulted(cfg, profile.config, flavor, 6);
      EXPECT_EQ(seq.finalValue, 16u * 6u) << label;
      EXPECT_NE(seq.faultSeed, 0u) << label;
      expectSameRun(seq, runFaulted(cfg, profile.config, flavor, 6),
                    label + " rerun");
    }
  }
}

// Graceful degradation on the retry adapters: chaos makes every site fire
// yet the final count is exact — faults cost retries, never lost updates.
TEST(FaultPlanTest, ChaosInjectsAtEverySiteWithoutCorruption) {
  const auto fc = findProfile("chaos")->config;
  const auto run = runFaulted(twoGroups(arch::AdapterKind::kLrscSingle),
                              fc, sync::RmwFlavor::kLrsc, 20);
  EXPECT_EQ(run.finalValue, 16u * 20u);
  EXPECT_GT(run.counters.at(Site::kNetDelay), 0u);
  EXPECT_GT(run.counters.at(Site::kScFail), 0u);
  EXPECT_GT(run.counters.at(Site::kEvict), 0u);
  EXPECT_GT(run.counters.at(Site::kStall), 0u);
  // Colibri's distributed reservation queue has no eviction site by
  // design: the evict counter must stay zero even under evict_churn.
  const auto colibri =
      runFaulted(twoGroups(arch::AdapterKind::kColibri),
                 findProfile("evict_churn")->config,
                 sync::RmwFlavor::kLrscWait, 20);
  EXPECT_EQ(colibri.finalValue, 16u * 20u);
  EXPECT_EQ(colibri.counters.at(Site::kEvict), 0u);
}

// A fault seed of 0 derives one from the system seed; distinct system
// seeds explore distinct fault schedules, a pinned fault seed does not.
TEST(FaultPlanTest, SeedDerivationFollowsSystemSeed) {
  const auto fc = findProfile("chaos")->config;
  auto cfg = twoGroups(arch::AdapterKind::kLrscSingle);
  const auto a = runFaulted(cfg, fc, sync::RmwFlavor::kLrsc, 6);
  cfg.seed += 1;
  const auto b = runFaulted(cfg, fc, sync::RmwFlavor::kLrsc, 6);
  EXPECT_NE(a.faultSeed, b.faultSeed);
  auto pinned = fc;
  pinned.seed = 42;
  const auto c = runFaulted(cfg, pinned, sync::RmwFlavor::kLrsc, 6);
  EXPECT_EQ(c.faultSeed, 42u);
}

// With no trip, the watchdog is pure observation: the dispatch stream of
// a healthy run is byte-identical with the watchdog on and off.
TEST(WatchdogTest, NoTripMeansNoEffect) {
  auto cfg = twoGroups(arch::AdapterKind::kLrscSingle);
  cfg.watchdogCycles = 0;
  const auto off = runFaulted(cfg, FaultConfig{}, sync::RmwFlavor::kLrsc, 10);
  cfg.watchdogCycles = 500;  // tight: many probes fire during the run
  const auto on = runFaulted(cfg, FaultConfig{}, sync::RmwFlavor::kLrsc, 10);
  expectSameRun(off, on, "watchdog on vs off");
}

// A stranded-LR hang: a deliberately re-introduced protocol bug whose only
// symptom is silence. Core 0 issues a raw LR and never the matching SC, so
// on the single-slot adapter the bank's only reservation slot stays held by
// core 0. Every other core's LR places no reservation, its SC fails, and
// its fetchAdd loop spins forever without a productive retirement.
sim::Task strandLr(arch::Core& core, sim::Addr a) {
  (void)co_await core.lr(a);
  co_return;  // no SC: the slot is never freed
}

sim::Task incrementForever(arch::Core& core, sim::Addr a,
                           sim::Xoshiro256& rng) {
  sync::Backoff backoff(sync::BackoffPolicy::fixed(32), rng);
  for (;;) {
    (void)co_await sync::fetchAdd(core, sync::RmwFlavor::kLrsc, a, 1,
                                  backoff);
  }
}

/// Run the stranded-LR hang on `cfg` (forced to kLrscSingle) until
/// `horizon`. Throws WatchdogError iff the watchdog is enabled and trips.
void runStrandedLr(arch::SystemConfig cfg, sim::Cycle horizon) {
  cfg.adapter = arch::AdapterKind::kLrscSingle;
  arch::System sys(cfg);
  const sim::Addr counter = 0;
  sys.poke(counter, 0);
  std::vector<std::unique_ptr<sim::Xoshiro256>> rngs;
  rngs.reserve(cfg.numCores);
  for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
    rngs.push_back(std::make_unique<sim::Xoshiro256>(
        sim::Xoshiro256::forStream(cfg.seed, c)));
  }
  sys.spawn(0, strandLr(sys.core(0), counter));
  for (sim::CoreId c = 1; c < cfg.numCores; ++c) {
    sys.spawn(c, incrementForever(sys.core(c), counter, *rngs[c]));
  }
  sys.runUntil(horizon);
  sys.rethrowFailures();
}

// The payoff case: a re-introduced PR-7-style stranded-LR leak is caught
// in bounded simulated time, and the blame report names the owning core
// and the reservation slot.
TEST(WatchdogTest, CatchesStrandedLrWithBlame) {
  auto cfg = twoGroups(arch::AdapterKind::kLrscSingle);
  cfg.watchdogCycles = 10'000;
  try {
    runStrandedLr(cfg, 100 * cfg.watchdogCycles);
    FAIL() << "stranded-LR hang ran to the horizon without a trip";
  } catch (const WatchdogError& e) {
    // Trip latency is bounded: limit + one probe step (limit/8).
    EXPECT_GE(e.trippedAt(), cfg.watchdogCycles);
    EXPECT_LE(e.trippedAt(), cfg.watchdogCycles + cfg.watchdogCycles / 8);
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos);
    EXPECT_NE(what.find("10000"), std::string::npos);
    // The blame report names the stranded reservation's owner and slot,
    // and lists stuck cores with their outstanding requests.
    const std::string& report = e.report();
    EXPECT_NE(report.find("reservation slot held by core 0"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("bank"), std::string::npos) << report;
    EXPECT_NE(report.find("core 1"), std::string::npos) << report;
  }
}

// With the watchdog disabled the stranded LR reproduces the pre-watchdog
// behavior: the hang runs silently to the horizon and returns.
TEST(WatchdogTest, DisabledWatchdogLetsTheHangRunSilently) {
  auto cfg = twoGroups(arch::AdapterKind::kLrscSingle);
  cfg.watchdogCycles = 0;
  EXPECT_NO_THROW(runStrandedLr(cfg, 20'000));
}

// The Colibri MCS-lock histogram with too few queue slots. Colibri checks
// an Mwait's value before it takes a slot, so at 2 slots per controller a
// waiter whose flag was already written is notified and the run completes.
// At 1 slot a core's LRwait is refused "queue full", forever, by a bank
// whose only slot holds a sleeping Mwait monitor. A refused wait is not a
// productive retirement, so that livelock trips the watchdog instead of
// running to a timeout, and the blame shows the monitor holding the slot.
exp::RunSpec mcsHistogramWithQueues(std::uint32_t queues) {
  exp::RunSpec spec;
  spec.config = exp::configFor(*exp::findAdapter("colibri"), 8,
                               arch::SystemConfig::smallTest());
  spec.config.colibriQueuesPerController = queues;
  workloads::HistogramParams p;
  p.mode = workloads::HistogramMode::kMcsLock;
  spec.params = p;
  spec.window = workloads::MeasureWindow{500, 2000};
  return spec;
}

TEST(WatchdogTest, CatchesMcsMwaitLivelockWithTooFewQueues) {
  try {
    (void)exp::runOne(mcsHistogramWithQueues(1));
    FAIL() << "the MCS livelock finished without a watchdog trip";
  } catch (const WatchdogError& e) {
    EXPECT_EQ(e.trippedAt(), 281'250u);
    EXPECT_NE(e.report().find("bank 1: 1 of 1 queue slots busy; slot 0: "
                              "mwait-monitoring"),
              std::string::npos)
        << e.report();
  }
}

TEST(WatchdogTest, McsMwaitCompletesWithTwoQueues) {
  const auto r = exp::runOne(mcsHistogramWithQueues(2));
  EXPECT_TRUE(r.verified);
  EXPECT_DOUBLE_EQ(r.rate.opsPerCycle, 0.1635);
}

// --- CLI surface ----------------------------------------------------------

std::vector<std::string> baseArgs(const char* adapter) {
  return {"--adapter", adapter,      "--workload",        "histogram",
          "--cores",   "16",         "--cores-per-tile",  "4",
          "--tiles-per-group", "2",  "--banks-per-tile",  "4",
          "--warmup",  "500",        "--measure",         "2000"};
}

TEST(FaultCliTest, JsonWithFaultBlockIsIdenticalAcrossThreadsAndReruns) {
  // Two reps, so --threads 4 really runs them on separate workers.
  auto run = [](const char* threads) {
    auto args = baseArgs("lrsc_single");
    for (const char* extra : {"--fault", "chaos", "--json", "--reps", "2",
                              "--threads", threads}) {
      args.emplace_back(extra);
    }
    std::ostringstream out;
    std::ostringstream err;
    const int rc = cli::runMain(args, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    return out.str();
  };
  const std::string seq = run("1");
  EXPECT_NE(seq.find("\"fault\""), std::string::npos);
  EXPECT_NE(seq.find("\"injected\""), std::string::npos);
  EXPECT_NE(seq.find("\"verified\": true"), std::string::npos);
  EXPECT_EQ(seq, run("1")) << "rerun diverged";
  EXPECT_EQ(seq, run("4")) << "--threads 4 diverged";
}

TEST(FaultCliTest, DefaultOutputUntouchedByFaultSubsystem) {
  auto run = [](bool explicitOff) {
    auto args = baseArgs("colibri");
    args.emplace_back("--json");
    if (explicitOff) {
      args.emplace_back("--fault");
      args.emplace_back("off");
    }
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::runMain(args, out, err), 0) << err.str();
    return out.str();
  };
  const std::string plain = run(false);
  EXPECT_EQ(plain, run(true)) << "--fault off changed the output";
  EXPECT_EQ(plain.find("\"fault\""), std::string::npos)
      << "fault block leaked into default JSON";
}

TEST(FaultCliTest, BadFaultFlagsAreUsageErrors) {
  struct Case {
    std::vector<std::string> extra;
    const char* expect;
  };
  for (const Case& kase :
       {Case{{"--fault", "nonsense"}, "net_jitter"},  // lists the profiles
        Case{{"--fault-sc-fail", "1.5"}, "--fault-sc-fail"},
        Case{{"--fault-net-delay", "0.5"}, "--fault-net-delay"}}) {
    auto args = baseArgs("lrsc_single");
    args.insert(args.end(), kase.extra.begin(), kase.extra.end());
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::runMain(args, out, err), 2) << kase.extra.front();
    EXPECT_NE(err.str().find(kase.expect), std::string::npos)
        << kase.extra.front() << ": " << err.str();
  }
}

TEST(FaultCliTest, StatsLineReportsInjectionCounts) {
  auto args = baseArgs("lrsc_single");
  for (const char* extra : {"--fault", "chaos", "--stats", "--csv"}) {
    args.emplace_back(extra);
  }
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(cli::runMain(args, out, err), 0) << err.str();
  const std::string stats = err.str();
  EXPECT_NE(stats.find("obs: fault.scFails = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("obs: fault.seed = "), std::string::npos) << stats;
}

// A quick litmus slice under chaos: mutual exclusion must hold (faults
// cost retries, never correctness), so the run exits 0.
TEST(FaultCliTest, LitmusHoldsUnderChaos) {
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::runMain(
      {"--litmus", "tas", "--cores", "16", "--cores-per-tile", "4",
       "--tiles-per-group", "2", "--banks-per-tile", "4", "--litmus-iters",
       "10", "--fault", "chaos"},
      out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("PASS"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace colibri::fault
