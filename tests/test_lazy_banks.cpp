// Banks are built on first use: constructing a System allocates the same
// number of heap blocks whatever its bank count, because no Bank or
// adapter exists until a request, a bank() call or a blame report reaches
// it. This binary replaces the global operator new to count allocations,
// so it is kept apart from the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "arch/system.hpp"
#include "test_util.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void* countedAlloc(std::size_t n, std::size_t align) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
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

std::size_t allocationsToConstruct(const SystemConfig& cfg) {
  const std::size_t before = gAllocations.load();
  const System sys(cfg);
  return gAllocations.load() - before;
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
  EXPECT_EQ(sys.builtBanks()[0], &sys.bank(37));
  EXPECT_EQ(sys.bank(37).stats().requests, 1u);
  EXPECT_EQ(sys.builtBanks().size(), 1u);  // bank(37) was already built

  // The accessor builds an untouched bank, idle and zeroed.
  EXPECT_EQ(sys.bank(38).stats().requests, 0u);
  EXPECT_EQ(sys.bank(38).backlog(), 0u);
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

}  // namespace
}  // namespace colibri::arch
