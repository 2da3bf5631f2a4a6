// Address map, allocator and topology unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "arch/address.hpp"
#include "arch/topology.hpp"

namespace colibri::arch {
namespace {

SystemConfig cfg() { return SystemConfig::smallTest(); }  // 16 cores, 16 banks

TEST(AddressMap, WordInterleavingAcrossBanks) {
  AddressMap m(cfg());
  // Consecutive words land in consecutive banks.
  for (sim::Addr a = 0; a < 64; ++a) {
    EXPECT_EQ(m.bankOf(a), a % 16);
    EXPECT_EQ(m.offsetOf(a), a / 16);
  }
}

TEST(AddressMap, ComposeInvertsDecompose) {
  AddressMap m(cfg());
  for (sim::BankId b = 0; b < 16; ++b) {
    for (std::uint64_t off = 0; off < 8; ++off) {
      const sim::Addr a = m.compose(b, off);
      EXPECT_EQ(m.bankOf(a), b);
      EXPECT_EQ(m.offsetOf(a), off);
    }
  }
}

// bankOf is division-free; it must agree with % and / (through compose)
// over every address of odd and power-of-two geometries alike.
SystemConfig geometry(std::uint32_t cores, std::uint32_t coresPerTile,
                      std::uint32_t tilesPerGroup, std::uint32_t banksPerTile) {
  SystemConfig c;
  c.numCores = cores;
  c.coresPerTile = coresPerTile;
  c.tilesPerGroup = tilesPerGroup;
  c.banksPerTile = banksPerTile;
  c.validate();
  return c;
}

void expectExactOverEveryAddress(const SystemConfig& c) {
  const AddressMap m(c);
  const std::uint64_t n = m.numBanks();
  std::uint64_t mismatches = 0;
  sim::Addr first = 0;
  for (sim::Addr a = 0; a < m.numWords(); ++a) {
    const sim::BankId b = m.bankOf(a);
    if (b != a % n || m.compose(b, a / n) != a || m.offsetOf(a) != a / n) {
      first = mismatches++ == 0 ? a : first;
    }
  }
  EXPECT_EQ(mismatches, 0u) << n << " banks; first at address " << first;
}

TEST(AddressMap, BankOfMatchesModuloOnEveryAddress) {
  expectExactOverEveryAddress(geometry(10, 2, 5, 3));  // 15 banks
  expectExactOverEveryAddress(geometry(30, 3, 5, 7));  // 70 banks
  expectExactOverEveryAddress(SystemConfig::memPool());  // 1024 banks
  expectExactOverEveryAddress(geometry(4096, 4, 64, 16));  // 16384 banks
}

TEST(AddressMap, BankOfIsExactUpToTheWordLimit) {
  // One bank: the reciprocal wraps to zero and every address is bank 0.
  SystemConfig one = geometry(1, 1, 1, 1);
  one.wordsPerBank = 0xFFFFFFFFu;
  one.validate();
  const AddressMap single(one);
  for (const sim::Addr a : {sim::Addr{0}, sim::Addr{12345}, one.numWords() - 1}) {
    EXPECT_EQ(single.bankOf(a), 0u);
  }
  // Three banks filling the 32-bit address space: exact at its top.
  SystemConfig three = geometry(3, 1, 3, 1);
  three.wordsPerBank = 0x55555555u;
  three.validate();
  ASSERT_EQ(three.numWords(), SystemConfig::kWordLimit - 1);
  const AddressMap m(three);
  for (sim::Addr a = three.numWords() - 5000; a < three.numWords(); ++a) {
    ASSERT_EQ(m.bankOf(a), a % 3) << a;
  }
  // An out-of-range address still maps to an existing bank.
  EXPECT_LT(m.bankOf(~sim::Addr{0}), 3u);
}

TEST(Config, ValidateRejectsWordSpacesOf32BitsOrMore) {
  SystemConfig c = geometry(2, 1, 2, 1);  // two banks
  c.wordsPerBank = 0x80000000u;          // 2^32 words
  EXPECT_THROW(c.validate(), sim::InvariantViolation);
  c.banksPerTile = 0x80000000u;  // bank count itself past 32 bits
  c.wordsPerBank = 1;
  EXPECT_THROW(c.validate(), sim::InvariantViolation);
}

TEST(AddressMap, TileOfBankMatchesGeometry) {
  AddressMap m(cfg());  // 4 banks per tile
  EXPECT_EQ(m.tileOfBank(0), 0u);
  EXPECT_EQ(m.tileOfBank(3), 0u);
  EXPECT_EQ(m.tileOfBank(4), 1u);
  EXPECT_EQ(m.tileOfBank(15), 3u);
}

TEST(Allocator, GlobalRegionsDoNotOverlap) {
  Allocator alloc(cfg());
  const auto a = alloc.allocGlobal(10);
  const auto b = alloc.allocGlobal(10);
  EXPECT_GE(b, a + 10);
}

TEST(Allocator, LocalWordsLiveInTheRequestedTile) {
  Allocator alloc(cfg());
  for (sim::TileId t = 0; t < 4; ++t) {
    for (const auto a : alloc.allocLocal(t, 9)) {
      EXPECT_EQ(alloc.map().tileOf(a), t);
    }
  }
}

TEST(Allocator, LocalThenGlobalNeverCollide) {
  Allocator alloc(cfg());
  std::set<sim::Addr> seen;
  for (const auto a : alloc.allocLocal(2, 5)) {
    EXPECT_TRUE(seen.insert(a).second);
  }
  const auto base = alloc.allocGlobal(40);
  for (sim::Addr a = base; a < base + 40; ++a) {
    EXPECT_TRUE(seen.insert(a).second) << "collision at " << a;
  }
  for (const auto a : alloc.allocLocal(0, 5)) {
    EXPECT_TRUE(seen.insert(a).second) << "collision at " << a;
  }
}

TEST(Allocator, ExhaustionThrows) {
  auto c = cfg();  // 16 banks * 64 words = 1024 words
  Allocator alloc(c);
  (void)alloc.allocGlobal(1024);
  EXPECT_THROW((void)alloc.allocGlobal(1), sim::InvariantViolation);
}

TEST(Allocator, BankExhaustionThrows) {
  Allocator alloc(cfg());
  for (int i = 0; i < 64; ++i) {
    (void)alloc.allocInBank(0);
  }
  EXPECT_THROW((void)alloc.allocInBank(0), sim::InvariantViolation);
}

// The allocator as it was first written: one cursor per bank, raised to
// the global row mark on every global allocation. The O(1) allocator must
// hand out exactly its addresses.
class ReferenceAllocator {
 public:
  explicit ReferenceAllocator(const SystemConfig& c)
      : map_(c), cursors_(c.numBanks(), 0) {}

  sim::Addr allocGlobal(std::uint64_t n) {
    const std::uint64_t numBanks = map_.numBanks();
    for (const auto cursor : cursors_) {
      nextRow_ = std::max(nextRow_, cursor);
    }
    const sim::Addr base = nextRow_ * numBanks;
    COLIBRI_CHECK(base + n <= map_.numWords());
    nextRow_ += (n + numBanks - 1) / numBanks;
    for (auto& cursor : cursors_) {
      cursor = std::max(cursor, nextRow_);
    }
    return base;
  }

  sim::Addr allocInBank(sim::BankId b) {
    std::uint64_t& cursor = cursors_[b];
    COLIBRI_CHECK(cursor < map_.wordsPerBank());
    return map_.compose(b, cursor++);
  }

 private:
  AddressMap map_;
  std::uint64_t nextRow_ = 0;
  std::vector<std::uint64_t> cursors_;
};

TEST(Allocator, MatchesPerBankCursorReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Allocator alloc(cfg());
    ReferenceAllocator ref(cfg());
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 200; ++step) {
      const bool global = rng() % 4 == 0;
      const std::uint64_t n = rng() % 40;
      const auto b = static_cast<sim::BankId>(rng() % 16);
      std::optional<sim::Addr> got;
      std::optional<sim::Addr> want;
      try {
        got = global ? alloc.allocGlobal(n) : alloc.allocInBank(b);
      } catch (const sim::InvariantViolation&) {
      }
      try {
        want = global ? ref.allocGlobal(n) : ref.allocInBank(b);
      } catch (const sim::InvariantViolation&) {
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
    }
  }
}

TEST(Topology, DistanceClasses) {
  Topology t(cfg());  // 4 cores/tile, 2 tiles/group, 4 banks/tile
  // Core 0 lives in tile 0, group 0.
  EXPECT_EQ(t.coreToBank(0, 0), Distance::kLocalTile);
  EXPECT_EQ(t.coreToBank(0, 3), Distance::kLocalTile);
  EXPECT_EQ(t.coreToBank(0, 4), Distance::kSameGroup);   // tile 1, group 0
  EXPECT_EQ(t.coreToBank(0, 8), Distance::kRemoteGroup);  // tile 2, group 1
  EXPECT_EQ(t.coreToBank(0, 15), Distance::kRemoteGroup);
}

TEST(Topology, GroupMembership) {
  Topology t(cfg());
  EXPECT_EQ(t.groupOfCore(0), 0u);
  EXPECT_EQ(t.groupOfCore(7), 0u);   // tile 1
  EXPECT_EQ(t.groupOfCore(8), 1u);   // tile 2
  EXPECT_EQ(t.groupOfCore(15), 1u);  // tile 3
}

TEST(Config, MemPoolGeometryMatchesPaper) {
  const auto c = SystemConfig::memPool();
  EXPECT_EQ(c.numCores, 256u);
  EXPECT_EQ(c.numTiles(), 64u);
  EXPECT_EQ(c.numGroups(), 4u);
  EXPECT_EQ(c.numBanks(), 1024u);
  // 1 MiB of L1: 1024 banks * 256 words * 4 B.
  EXPECT_EQ(c.numWords() * 4, 1u << 20);
}

TEST(Config, ValidateRejectsBadGeometry) {
  auto c = cfg();
  c.numCores = 10;  // not divisible by coresPerTile=4
  EXPECT_THROW(c.validate(), sim::InvariantViolation);
}

}  // namespace
}  // namespace colibri::arch
