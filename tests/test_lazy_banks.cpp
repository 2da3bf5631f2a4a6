// Constructing a System allocates a constant number of heap blocks and a
// bounded number of bytes per core and per bank. Banks are built on first
// use: no Bank, adapter or link state exists until a request, a bank()
// call or a blame report reaches it, and the Network holds nothing per
// bank. Cores and Qnodes are built in place in one array each, and a bank
// costs one pointer until it is built. Running a workload costs a bounded
// number of engine events and heap allocations per issued request (the
// work-count gate at the end). This binary replaces the global operator
// new to count allocations and their bytes, so it is kept apart from the
// other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "cli/driver.hpp"
#include "exp/run.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};
std::atomic<std::size_t> gBytes{0};

void* countedAlloc(std::size_t n, std::size_t align) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  gBytes.fetch_add(n, std::memory_order_relaxed);
  n = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return countedAlloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return countedAlloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace colibri::arch {
namespace {

SystemConfig withBanksPerTile(std::uint32_t banksPerTile, AdapterKind k) {
  SystemConfig cfg = SystemConfig::memPool();  // 256 cores in 64 tiles
  cfg.banksPerTile = banksPerTile;
  cfg.adapter = k;
  return cfg;
}

SystemConfig withCores(std::uint32_t cores, AdapterKind k) {
  SystemConfig cfg = SystemConfig::memPool();  // 4 cores per tile
  cfg.numCores = cores;
  cfg.adapter = k;
  return cfg;
}

/// 4096 cores in 1024 tiles of 16 groups, 16 banks per tile. At this size
/// Debug builds skip the Network's dense per-pair cross-check, which is
/// O(cores x banks) by design, so Debug and Release count the same bytes.
SystemConfig fourK(AdapterKind k) {
  SystemConfig cfg = SystemConfig::memPool();
  cfg.numCores = 4096;
  cfg.tilesPerGroup = 64;
  cfg.adapter = k;
  return cfg;
}

std::size_t allocationsToConstruct(const SystemConfig& cfg) {
  const std::size_t before = gAllocations.load();
  const System sys(cfg);
  return gAllocations.load() - before;
}

std::size_t bytesToConstruct(const SystemConfig& cfg) {
  const std::size_t before = gBytes.load();
  const System sys(cfg);
  return gBytes.load() - before;
}

std::size_t bytesToConstructNetwork(const SystemConfig& cfg) {
  const std::size_t before = gBytes.load();
  const Network net(cfg);
  return gBytes.load() - before;
}

class LazyBanks : public ::testing::TestWithParam<AdapterKind> {};

// 1024 vs 4096 banks: eager construction would differ by two or three
// blocks (Bank, adapter, adapter state) per extra bank.
TEST_P(LazyBanks, ConstructionAllocatesIndependentlyOfBankCount) {
  const std::size_t few =
      allocationsToConstruct(withBanksPerTile(16, GetParam()));
  const std::size_t many =
      allocationsToConstruct(withBanksPerTile(64, GetParam()));
  EXPECT_EQ(few, many);
}

// 256 vs 1024 cores: one heap block per Core (or per Qnode wake sender)
// would differ by 768 blocks.
TEST_P(LazyBanks, ConstructionAllocatesIndependentlyOfCoreCount) {
  const std::size_t few = allocationsToConstruct(withCores(256, GetParam()));
  const std::size_t many =
      allocationsToConstruct(withCores(1024, GetParam()));
  EXPECT_EQ(few, many);
}

// Byte budget: a core costs one Core record, one Qnode and its network
// placement. 1024 vs 4096 cores on the same 1024 tiles and 16384 banks.
TEST_P(LazyBanks, ConstructionBytesPerCoreStayWithinBudget) {
  SystemConfig few = fourK(GetParam());
  few.numCores = 1024;
  few.coresPerTile = 1;
  const SystemConfig many = fourK(GetParam());
  const std::size_t extraCores = many.numCores - few.numCores;
  EXPECT_LE(bytesToConstruct(many) - bytesToConstruct(few),
            200 * extraCores);
}

// An unbuilt bank costs one pointer: 16384 vs 65536 banks at 4096 cores.
TEST_P(LazyBanks, ConstructionBytesPerBankStayWithinBudget) {
  const SystemConfig few = fourK(GetParam());
  SystemConfig many = few;
  many.banksPerTile = 64;
  const std::size_t extraBanks = many.numBanks() - few.numBanks();
  EXPECT_LE(bytesToConstruct(many) - bytesToConstruct(few), 8 * extraBanks);
}

// The whole 4096-core, 16384-bank System stays under 0.95 MB.
TEST_P(LazyBanks, FourKCoreConstructionFitsTheBudget) {
  EXPECT_LE(bytesToConstruct(fourK(GetParam())), 950'000u);
}

// The network keeps per-core placement and per-group/tile stages, but
// nothing per bank: 16384 vs 65536 banks at 4096 cores.
TEST(LazyBanksNetwork, HoldsNoStatePerBank) {
  const SystemConfig few = fourK(AdapterKind::kColibri);
  SystemConfig many = few;
  many.banksPerTile = 64;
  EXPECT_EQ(bytesToConstructNetwork(few), bytesToConstructNetwork(many));
}

TEST_P(LazyBanks, OneRequestBuildsOneBank) {
  const SystemConfig cfg = withBanksPerTile(16, GetParam());
  System sys(cfg);
  EXPECT_EQ(sys.builtBanks().size(), 0u);

  // Direct SPM access builds nothing.
  const sim::Addr a = sys.allocator().allocInBank(37);
  sys.poke(a, 5);
  EXPECT_EQ(sys.peek(a), 5u);
  EXPECT_EQ(sys.builtBanks().size(), 0u);

  auto task = [](Core& core, sim::Addr addr) -> sim::Task {
    const auto r = co_await core.load(addr);
    EXPECT_EQ(r.value, 5u);
  };
  sys.spawn(0, task(sys.core(0), a));
  sys.run();
  sys.rethrowFailures();
  ASSERT_EQ(sys.builtBanks().size(), 1u);
  EXPECT_EQ(sys.builtBanks()[0].get(), &sys.bank(37));
  EXPECT_EQ(sys.bank(37).stats().requests, 1u);
  EXPECT_EQ(sys.builtBanks().size(), 1u);  // bank(37) was already built

  // The accessor builds an untouched bank, idle and zeroed.
  EXPECT_EQ(sys.bank(38).stats().requests, 0u);
  EXPECT_EQ(sys.bank(38).backlog(sys.now()), 0u);
  EXPECT_EQ(sys.builtBanks().size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Adapters, LazyBanks,
                         ::testing::Values(AdapterKind::kAmoOnly,
                                           AdapterKind::kLrscSingle,
                                           AdapterKind::kLrscTable,
                                           AdapterKind::kLrscWait,
                                           AdapterKind::kColibri),
                         [](const auto& info) {
                           return test::paramName(toString(info.param));
                         });

// --- Work per request --------------------------------------------------
//
// Exact, deterministic work counts for the workload shapes of the
// end-to-end benchmark (bench/e2e), plus the amo and lrscwait histograms.
// Each shape is a colibri-sim command line, turned into the run it names
// by the CLI's own cli::buildSpec, and runs at two measurement windows,
// each on a fresh System; differencing the two runs cancels construction,
// warmup and drain. Per issued request, the engine events and the heap
// allocations must stay at or below their bounds; an op allocates nothing
// (the RMW primitives are frameless and adapter queues reuse their
// storage), so the allocation bound only leaves room for a container that
// grows once more in the longer run. A change that removes work tightens
// the bounds in its own diff.

struct WorkShape {
  const char* name;
  std::vector<std::string> args;  ///< colibri-sim flags, --measure aside
  double maxEventsPerRequest;
  double maxAllocationsPerRequest;
};

void PrintTo(const WorkShape& shape, std::ostream* os) { *os << shape.name; }

struct WorkCount {
  double events = 0;
  double requests = 0;
  double allocations = 0;
};

WorkCount countWork(const WorkShape& shape, std::uint64_t measure) {
  auto args = shape.args;
  args.insert(args.end(), {"--measure", std::to_string(measure)});
  const cli::ParseResult parsed = cli::parseArgs(args);
  exp::RunSpec spec;
  if (auto error = parsed.error ? parsed.error
                                : cli::buildSpec(parsed.options, spec)) {
    throw std::invalid_argument(*error);
  }
  obs::Recorder recorder;
  spec.config.recorder = &recorder;
  const std::size_t before = gAllocations.load();
  const exp::RunResult result = exp::runOne(spec);
  const std::size_t allocations = gAllocations.load() - before;
  EXPECT_TRUE(result.verified) << shape.name;
  return {recorder.value("engine.executedEvents").value(),
          recorder.value("core.issuedOps").value(),
          static_cast<double>(allocations)};
}

class WorkPerRequest : public ::testing::TestWithParam<WorkShape> {};

TEST_P(WorkPerRequest, StaysWithinBounds) {
  const WorkShape& shape = GetParam();
  const WorkCount shortRun = countWork(shape, 20'000);
  const WorkCount longRun = countWork(shape, 40'000);
  const double requests = longRun.requests - shortRun.requests;
  ASSERT_GT(requests, 0.0);
  const double events = (longRun.events - shortRun.events) / requests;
  const double allocations =
      (longRun.allocations - shortRun.allocations) / requests;
  std::printf("%s: %.6f events, %.6f allocations per issued request "
              "(%.0f requests)\n",
              shape.name, events, allocations, requests);
  EXPECT_LE(events, shape.maxEventsPerRequest);
  EXPECT_LE(allocations, shape.maxAllocationsPerRequest);
}

// Bounds: the event ratios this test measured when it was added, rounded
// up at the third decimal; allocations at 0.001. Events and allocations
// per request, as measured now:
//   hist16_lrsc      4.999941  0.000012  (85,208 requests)
//   hist16_colibri   6.448808  0.000000  (50,008; LRwait + SCwait per op)
//   rw_colibri       5.019216  0.000003  (383,171; 90% loads)
//   zipf4k_colibri   5.494646  0.000000  (26,334)
//   hist16_amo       4.999994  0.000000  (169,716; one AMO per op)
//   hist16_lrscwait  4.999864  0.000000  (73,360)
INSTANTIATE_TEST_SUITE_P(
    Shapes, WorkPerRequest,
    ::testing::Values(
        WorkShape{"hist16_lrsc",
                  {"--adapter", "lrsc_single", "--workload", "histogram",
                   "--bins", "16"},
                  5.000, 0.001},
        WorkShape{"hist16_colibri",
                  {"--adapter", "colibri", "--workload", "histogram",
                   "--bins", "16"},
                  6.449, 0.001},
        WorkShape{"rw_colibri",
                  {"--adapter", "colibri", "--workload", "readers_writers"},
                  5.020, 0.001},
        WorkShape{"zipf4k_colibri",
                  {"--adapter", "colibri", "--workload", "zipf_hot",
                   "--cores", "4096", "--tiles-per-group", "64"},
                  5.495, 0.001},
        WorkShape{"hist16_amo",
                  {"--adapter", "amo", "--workload", "histogram", "--bins",
                   "16"},
                  5.000, 0.001},
        WorkShape{"hist16_lrscwait",
                  {"--adapter", "lrscwait", "--workload", "histogram",
                   "--bins", "16"},
                  5.000, 0.001}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace colibri::arch
