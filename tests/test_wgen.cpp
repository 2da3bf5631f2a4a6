// Workload-generator tests: the KernelSpec grammar (validation, role
// assignment, Zipf CDF and its guide-table draw), region resolution on a System, the self-checking
// kernel runner for every preset, determinism (bit-identical results
// across SweepRunner thread counts and across reruns with one seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "sim/check.hpp"
#include "sim/event.hpp"
#include "sim/random.hpp"
#include "wgen/kernel.hpp"
#include "wgen/presets.hpp"

namespace colibri::wgen {
namespace {

constexpr workloads::MeasureWindow kTestWindow{200, 1000};

exp::RunSpec presetSpec(const std::string& adapterName,
                        const std::string& presetName) {
  const auto adapter = exp::findAdapter(adapterName);
  EXPECT_TRUE(adapter.has_value()) << adapterName;
  const auto* preset = findPreset(presetName);
  EXPECT_NE(preset, nullptr) << presetName;
  exp::RunSpec spec;
  spec.label = adapterName + "/" + presetName;
  spec.workload = presetName;
  spec.config = exp::configFor(*adapter, 8, arch::SystemConfig::smallTest());
  WgenParams p;
  p.kernel = preset->spec;
  spec.params = p;
  spec.window = kTestWindow;
  return spec;
}

TEST(WgenPresets, AtLeastEightRegisteredAndValid) {
  ASSERT_GE(presets().size(), 8u);
  for (const auto& p : presets()) {
    EXPECT_FALSE(p.spec.name.empty());
    EXPECT_FALSE(p.description.empty());
    EXPECT_NO_THROW(validate(p.spec)) << p.spec.name;
  }
  for (const char* name : {"uniform_fa", "zipf_hot", "hotspot1",
                           "readers_writers", "stride_fs", "mixed_cas",
                           "burst", "lock_zipf"}) {
    EXPECT_NE(findPreset(name), nullptr) << name;
  }
  EXPECT_EQ(findPreset("no_such_preset"), nullptr);
}

TEST(WgenPresets, AllAreRegistryWorkloads) {
  for (const auto& p : presets()) {
    EXPECT_TRUE(exp::findWorkload(p.spec.name).has_value()) << p.spec.name;
  }
}

TEST(WgenSpec, ValidationCatchesMalformedKernels) {
  KernelSpec s;
  s.name = "bad";
  EXPECT_THROW(validate(s), sim::InvariantViolation);  // no regions/roles
  s.regions = {Region{}};
  s.roles = {Role{"r", 1.0, {Phase{.region = 7}}}};
  EXPECT_THROW(validate(s), sim::InvariantViolation);  // region out of range
  s.roles = {Role{"r", 1.0, {Phase{.region = 0}}}};
  EXPECT_NO_THROW(validate(s));
}

TEST(WgenSpec, NeedsReservationsOnlyForCasKernels) {
  EXPECT_TRUE(needsReservations(findPreset("mixed_cas")->spec));
  for (const char* name : {"uniform_fa", "zipf_hot", "hotspot1",
                           "readers_writers", "stride_fs", "burst",
                           "lock_zipf"}) {
    EXPECT_FALSE(needsReservations(findPreset(name)->spec)) << name;
  }
}

TEST(WgenSpec, RoleAssignmentSplitsByShareAndCoversEveryCore) {
  const auto& spec = findPreset("readers_writers")->spec;  // 0.9 / 0.1
  const auto roles = assignRoles(spec, 16);
  ASSERT_EQ(roles.size(), 16u);
  const auto writers =
      std::count(roles.begin(), roles.end(), std::uint32_t{1});
  EXPECT_GE(writers, 1) << "positive-share role squeezed to zero cores";
  EXPECT_LE(writers, 3);
  // Tiny participant counts still give every positive-share role a core.
  const auto two = assignRoles(spec, 2);
  EXPECT_NE(std::count(two.begin(), two.end(), std::uint32_t{1}), 0);
}

TEST(WgenSpec, ZipfCdfIsMonotoneNormalizedAndSkewed) {
  const auto cdf = zipfCdf(64, 0.99);
  ASSERT_EQ(cdf.size(), 64u);
  EXPECT_TRUE(std::is_sorted(cdf.begin(), cdf.end()));
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  // Rank 0 carries far more mass than the tail rank.
  const double p0 = cdf[0];
  const double pLast = cdf[63] - cdf[62];
  EXPECT_GT(p0, 10.0 * pLast);
  // theta = 0 degenerates to uniform.
  const auto flat = zipfCdf(4, 0.0);
  EXPECT_NEAR(flat[0], 0.25, 1e-12);
  EXPECT_NEAR(flat[2], 0.75, 1e-12);
}

// The guide-table draw is an exact replacement for a binary search: for
// every u in [0, 1) it returns upper_bound(cdf, u), including at the slot
// bounds k/G, at each CDF value and the double just below it, and at the
// largest double below 1.
TEST(WgenSpec, ZipfRankEqualsUpperBound) {
  for (const std::uint32_t range : {1u, 16u, 128u, 256u, 4096u}) {
    for (const double theta : {0.5, 0.99, 1.2}) {
      SCOPED_TRACE(testing::Message() << "range " << range << " theta "
                                      << theta);
      const auto cdf = zipfCdf(range, theta);
      const auto guide = zipfGuide(cdf);
      const std::size_t slots = guide.size();
      ASSERT_GE(slots, 4u * range);
      ASSERT_EQ(slots & (slots - 1), 0u) << "G must be a power of two";
      const auto expectExact = [&](double u) {
        const auto want = static_cast<std::uint32_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ASSERT_EQ(zipfRank(cdf, guide, u), want) << "u = " << u;
      };
      for (std::size_t k = 0; k < slots; ++k) {
        expectExact(static_cast<double>(k) / static_cast<double>(slots));
      }
      for (const double c : cdf) {
        if (c < 1.0) {
          expectExact(c);
        }
        expectExact(std::nextafter(c, 0.0));
      }
      expectExact(std::nextafter(1.0, 0.0));
      auto rng = sim::Xoshiro256::forStream(range, 7);
      for (int n = 0; n < 1'000'000; ++n) {
        expectExact(rng.uniform01());
      }
    }
  }
}

TEST(WgenRegions, StridedZeroPutsEveryWordInOneBank) {
  arch::System sys(arch::SystemConfig::smallTest());
  const auto& spec = findPreset("stride_fs")->spec;
  const auto regions = resolveRegions(sys, spec, 16);
  ASSERT_EQ(regions.size(), 1u);
  ASSERT_EQ(regions[0].addrs.size(), 16u);  // one word per participant
  const auto& map = sys.allocator().map();
  const auto bank = map.bankOf(regions[0].addrs.front());
  for (const auto a : regions[0].addrs) {
    EXPECT_EQ(map.bankOf(a), bank) << "false-sharing words must share a bank";
  }
  // Distinct words, though.
  auto sorted = regions[0].addrs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(WgenRegions, LockPhasesGetParallelLockWords) {
  arch::System sys(arch::SystemConfig::smallTest());
  const auto regions =
      resolveRegions(sys, findPreset("lock_zipf")->spec, 16);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].locks.size(), regions[0].addrs.size());
  // A zipfian region carries its CDF and the CDF's guide table.
  EXPECT_FALSE(regions[0].cdf.empty());
  EXPECT_EQ(regions[0].guide, zipfGuide(regions[0].cdf));
}

TEST(WgenRun, EveryPresetRunsAndSelfChecksOnColibri) {
  for (const auto& preset : presets()) {
    const auto spec = presetSpec("colibri", preset.spec.name);
    const auto r = exp::runOne(spec);
    EXPECT_TRUE(r.verified) << preset.spec.name;
    EXPECT_GT(r.rate.opsInWindow, 0u) << preset.spec.name;
    EXPECT_EQ(r.workload, preset.spec.name);
    // Every windowed op contributed one latency sample.
    EXPECT_EQ(r.opLatency.count, r.rate.opsInWindow) << preset.spec.name;
    EXPECT_LE(r.opLatency.p50, r.opLatency.p95) << preset.spec.name;
    EXPECT_LE(r.opLatency.p95, r.opLatency.p99) << preset.spec.name;
    EXPECT_GT(r.opLatency.p50, 0.0) << preset.spec.name;
  }
}

TEST(WgenRun, ReadersOutnumberWritersInTraffic) {
  // 90% readers / 10% writers: windowed ops far exceed the increments
  // that landed in the region words.
  const auto spec = presetSpec("colibri", "readers_writers");
  arch::System sys(spec.config);
  WgenParams p = std::get<WgenParams>(spec.params);
  p.window = spec.window;
  const auto r = runKernel(sys, p);
  EXPECT_TRUE(r.sumVerified);
  EXPECT_GT(r.totalOps, 2 * r.totalIncrements)
      << "reader loads should dominate writer increments";
  EXPECT_GT(r.totalIncrements, 0u);
}

TEST(WgenRun, CasPresetRejectedOnAmoEverywhere) {
  const auto scenario = exp::findScenario("amo", "mixed_cas");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_FALSE(scenario->supported);
  // Direct runs enforce it too.
  const auto spec = presetSpec("amo", "mixed_cas");
  EXPECT_THROW((void)exp::runOne(spec), sim::InvariantViolation);
}

TEST(WgenRun, McsLockPhaseSelfChecksAndNeedsReservations) {
  KernelSpec k;
  k.name = "mcs_hot";
  k.regions = {Region{.dist = AddrDist::kHotspot, .range = 4}};
  k.roles = {Role{"worker", 1.0, {Phase{.op = OpClass::kMcsLock}}}};
  EXPECT_TRUE(needsReservations(k));
  // Mwait waiters on colibri, polling waiters on lrsc_single; the sum
  // check also requires every queue tail to be free after the drain.
  for (const auto kind :
       {arch::AdapterKind::kColibri, arch::AdapterKind::kLrscSingle}) {
    auto cfg = arch::SystemConfig::smallTest();
    cfg.adapter = kind;
    arch::System sys(cfg);
    WgenParams p;
    p.kernel = k;
    p.window = kTestWindow;
    const auto r = runKernel(sys, p);
    EXPECT_TRUE(r.sumVerified) << arch::toString(kind);
    EXPECT_GT(r.rate.opsInWindow, 0u) << arch::toString(kind);
  }
  auto cfg = arch::SystemConfig::smallTest();
  cfg.adapter = arch::AdapterKind::kAmoOnly;
  arch::System amo(cfg);
  WgenParams p;
  p.kernel = k;
  EXPECT_THROW((void)runKernel(amo, p), sim::InvariantViolation);
}

void expectBitIdentical(const exp::RunResult& a, const exp::RunResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.seed, b.seed) << what;
  EXPECT_EQ(a.rate.opsPerCycle, b.rate.opsPerCycle) << what;
  EXPECT_EQ(a.rate.opsInWindow, b.rate.opsInWindow) << what;
  EXPECT_EQ(a.rate.perCoreWindowOps, b.rate.perCoreWindowOps) << what;
  EXPECT_EQ(a.rate.fairnessJain, b.rate.fairnessJain) << what;
  EXPECT_EQ(a.rate.counters.instructions, b.rate.counters.instructions)
      << what;
  EXPECT_EQ(a.rate.counters.netMessages, b.rate.counters.netMessages)
      << what;
  EXPECT_EQ(a.opLatency.count, b.opLatency.count) << what;
  EXPECT_EQ(a.opLatency.mean, b.opLatency.mean) << what;
  EXPECT_EQ(a.opLatency.p50, b.opLatency.p50) << what;
  EXPECT_EQ(a.opLatency.p95, b.opLatency.p95) << what;
  EXPECT_EQ(a.opLatency.p99, b.opLatency.p99) << what;
  EXPECT_EQ(a.verified, b.verified) << what;
}

TEST(WgenDeterminism, BitIdenticalAcrossThreadCountsAndReruns) {
  // Every preset on a representative adapter slice (the supported combos).
  std::vector<exp::RunSpec> specs;
  for (const auto& preset : presets()) {
    for (const char* adapter : {"colibri", "lrsc_single", "amo"}) {
      const auto scenario = exp::findScenario(adapter, preset.spec.name);
      ASSERT_TRUE(scenario.has_value())
          << adapter << " x " << preset.spec.name;
      if (!scenario->supported) {
        continue;
      }
      specs.push_back(presetSpec(adapter, preset.spec.name));
    }
  }
  ASSERT_GE(specs.size(), 20u);

  exp::SweepRunner serial(1);
  exp::SweepRunner wide(8);
  const auto a = serial.run(specs);
  const auto b = wide.run(specs);
  const auto c = serial.run(specs);  // rerun, same seeds
  ASSERT_EQ(a.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expectBitIdentical(a[i].primary(), b[i].primary(),
                       specs[i].label + " (threads)");
    expectBitIdentical(a[i].primary(), c[i].primary(),
                       specs[i].label + " (rerun)");
  }
}

TEST(WgenDeterminism, SeedActuallyChangesTheMeasurement) {
  auto spec = presetSpec("colibri", "zipf_hot");
  const auto a = exp::runOne(spec);
  spec.seed ^= 0xDEADBEEF;
  const auto b = exp::runOne(spec);
  EXPECT_NE(a.rate.perCoreWindowOps, b.rate.perCoreWindowOps);
}

TEST(WgenDeterminism, ThetaOverrideChangesContention) {
  auto flat = presetSpec("colibri", "zipf_hot");
  std::get<WgenParams>(flat.params).kernel.regions[0].zipfTheta = 0.0;
  auto sharp = presetSpec("colibri", "zipf_hot");
  std::get<WgenParams>(sharp.params).kernel.regions[0].zipfTheta = 1.2;
  const auto a = exp::runOne(flat);
  const auto b = exp::runOne(sharp);
  EXPECT_GT(a.rate.opsPerCycle, b.rate.opsPerCycle)
      << "sharper skew must cost throughput";
}

}  // namespace
}  // namespace colibri::wgen
