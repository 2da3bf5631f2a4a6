// The three data-structure workloads added with the litmus suite: the
// lock-free hash table, the Chase-Lev work-stealing deque, and the
// spin-lock fairness study. Each must run and self-verify on every
// adapter that supports it, reject the AMO-only adapter where it needs
// reservations, produce bit-identical results on reruns, and be wired
// into the exp:: registry/dispatch like the original five workloads.
#include <gtest/gtest.h>

#include <string>

#include "arch/system.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "sim/check.hpp"
#include "workloads/hashtable.hpp"
#include "workloads/lockfair.hpp"
#include "workloads/wsdeque.hpp"

namespace colibri {
namespace {

const workloads::MeasureWindow kWindow{1000, 6000};

arch::SystemConfig smallConfigFor(const exp::AdapterSpec& adapter) {
  return exp::configFor(adapter, 8, arch::SystemConfig::smallTest());
}

exp::RunSpec specFor(const exp::AdapterSpec& adapter,
                     const exp::WorkloadParams& params) {
  exp::RunSpec spec;
  spec.label = adapter.name;
  spec.config = smallConfigFor(adapter);
  spec.params = params;
  spec.window = kWindow;
  return spec;
}

bool supportsCas(const exp::AdapterSpec& a) {
  return a.kind != arch::AdapterKind::kAmoOnly;
}

TEST(NewWorkloadRegistry, AllThreeRegisteredAndGated) {
  for (const char* name : {"hashtable", "wsdeque", "lockfair"}) {
    EXPECT_TRUE(exp::findWorkload(name).has_value()) << name;
  }
  for (const auto& s : exp::allScenarios()) {
    const bool needsCas =
        s.workload.name == "hashtable" || s.workload.name == "wsdeque";
    if (s.adapter.kind == arch::AdapterKind::kAmoOnly && needsCas) {
      EXPECT_FALSE(s.supported) << s.workload.name;
      EXPECT_FALSE(s.whyUnsupported.empty());
    } else if (s.workload.name == "lockfair") {
      EXPECT_TRUE(s.supported) << s.adapter.name;
    }
  }
}

TEST(HashTable, RunsAndVerifiesOnEveryCasAdapter) {
  for (const auto& adapter : exp::adapters()) {
    if (!supportsCas(adapter)) {
      continue;
    }
    const auto r = exp::runOne(specFor(adapter, workloads::HashTableParams{}));
    EXPECT_TRUE(r.verified) << adapter.name;
    EXPECT_EQ(r.workload, "hashtable") << adapter.name;
    const double inserts = r.extra("inserts").value();
    EXPECT_GT(inserts, 0.0) << adapter.name;
    EXPECT_LE(inserts, 128.0) << adapter.name;  // 16 cores x 8-key budget
    EXPECT_GT(r.rate.opsInWindow, 0u) << adapter.name;
    if (adapter.waitCapable || adapter.kind == arch::AdapterKind::kColibri) {
      // Fast CAS adapters exhaust the whole insert budget well inside the
      // window and move on to lookups; the single-slot LR/SC adapter
      // spends the window fighting over reservations instead — which is
      // the contention story this workload exists to show.
      EXPECT_EQ(inserts, 128.0) << adapter.name;
      EXPECT_GT(r.extra("lookups").value(), 0.0) << adapter.name;
    }
  }
}

TEST(HashTable, RejectsTheAmoOnlyAdapter) {
  auto cfg = arch::SystemConfig::smallTest();
  cfg.adapter = arch::AdapterKind::kAmoOnly;
  arch::System sys(cfg);
  EXPECT_THROW((void)workloads::runHashTable(sys, {}),
               sim::InvariantViolation);
}

TEST(HashTable, RejectsBudgetsThatOverfillTheTable) {
  arch::System sys(arch::SystemConfig::smallTest());
  workloads::HashTableParams p;
  p.slots = 64;
  p.keysPerCore = 3;  // 16 cores * 3 keys > 32 = half the table
  EXPECT_THROW((void)workloads::runHashTable(sys, p),
               sim::InvariantViolation);
}

TEST(WsDeque, EveryTaskRunsExactlyOnceOnEveryCasAdapter) {
  for (const auto& adapter : exp::adapters()) {
    if (!supportsCas(adapter)) {
      continue;
    }
    arch::System sys(smallConfigFor(adapter));
    const auto r = workloads::runWsDeque(sys, {});
    EXPECT_TRUE(r.verified) << adapter.name;
    EXPECT_EQ(r.executed, 8u * 16u) << adapter.name;
    EXPECT_EQ(r.ownerPops + r.steals, r.executed) << adapter.name;
    EXPECT_EQ(r.duplicates, 0u) << adapter.name;
    EXPECT_GT(r.steals, 0u) << adapter.name;  // thieves actually win work
    EXPECT_GT(r.duration, 0u) << adapter.name;
  }
}

TEST(WsDeque, RejectsTheAmoOnlyAdapterAndSingleCoreRuns) {
  auto cfg = arch::SystemConfig::smallTest();
  cfg.adapter = arch::AdapterKind::kAmoOnly;
  arch::System sys(cfg);
  EXPECT_THROW((void)workloads::runWsDeque(sys, {}), sim::InvariantViolation);

  arch::System sys2(arch::SystemConfig::smallTest());
  workloads::WsDequeParams p;
  p.thieves = 16;  // only 15 spare cores on smallTest
  EXPECT_THROW((void)workloads::runWsDeque(sys2, p), sim::InvariantViolation);
}

TEST(LockFair, HoldsExclusionAndMeasuresTheSpreadOnEveryAdapter) {
  for (const auto& adapter : exp::adapters()) {
    const auto r = exp::runOne(specFor(adapter, workloads::LockFairParams{}));
    EXPECT_TRUE(r.verified) << adapter.name;
    EXPECT_EQ(r.workload, "lockfair") << adapter.name;
    EXPECT_GT(r.rate.opsInWindow, 0u) << adapter.name;
    // The spread summary covers all 16 participants; the handoff latency
    // distribution has one sample per window acquisition.
    EXPECT_EQ(r.acqSpread.count, 16u) << adapter.name;
    EXPECT_EQ(r.opLatency.count, r.rate.opsInWindow) << adapter.name;
    EXPECT_GE(r.acqSpread.max, r.acqSpread.min) << adapter.name;
  }
}

TEST(NewWorkloadDeterminism, RerunsAreBitIdentical) {
  for (const auto& adapter : exp::adapters()) {
    if (!supportsCas(adapter)) {
      continue;
    }
    for (const char* workload : {"hashtable", "wsdeque", "lockfair"}) {
      exp::WorkloadParams params;
      if (std::string(workload) == "hashtable") {
        params = workloads::HashTableParams{};
      } else if (std::string(workload) == "wsdeque") {
        params = workloads::WsDequeParams{};
      } else {
        params = workloads::LockFairParams{};
      }
      const auto spec = specFor(adapter, params);
      const auto a = exp::runOne(spec);
      const auto b = exp::runOne(spec);
      const std::string what = std::string(adapter.name) + "/" + workload;
      EXPECT_EQ(a.rate.opsInWindow, b.rate.opsInWindow) << what;
      EXPECT_EQ(a.rate.perCoreWindowOps, b.rate.perCoreWindowOps) << what;
      ASSERT_EQ(a.extras.size(), b.extras.size()) << what;
      for (const auto& e : a.extras) {
        EXPECT_EQ(a.extra(e.key).value(), b.extra(e.key).value())
            << what << " " << e.key;
      }
      EXPECT_EQ(a.opLatency.p99, b.opLatency.p99) << what;
    }
  }
}

TEST(NewWorkloadDeterminism, RepSeedsChangeTheInterleaving) {
  // Repetition 1 must actually run a different schedule than rep 0 —
  // otherwise --reps aggregates N copies of the same number.
  const auto& adapter = exp::adapters().back();  // colibri
  auto spec = specFor(adapter, workloads::LockFairParams{});
  const auto a = exp::runOne(spec, 0);
  const auto b = exp::runOne(spec, 1);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.rate.perCoreWindowOps, b.rate.perCoreWindowOps);
}

}  // namespace
}  // namespace colibri
