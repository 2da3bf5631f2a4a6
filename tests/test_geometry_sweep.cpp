// Geometry-sweep property tests: correctness must not depend on the
// machine shape. Runs contended atomic increments and the LRwait/SCwait
// mutual-exclusion probe on a grid of {geometry} x {adapter}
// configurations (TEST_P), including degenerate shapes (1 tile, 1 group,
// minimal banks).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "arch/system.hpp"
#include "sync/atomic.hpp"
#include "test_util.hpp"

namespace colibri::arch {
namespace {

struct Geometry {
  const char* name;
  std::uint32_t cores, coresPerTile, tilesPerGroup, banksPerTile;
};

const Geometry kGeometries[] = {
    {"tiny_1tile", 4, 4, 1, 2},
    {"one_group", 8, 4, 2, 4},
    {"tall_tiles", 16, 8, 2, 4},
    {"many_groups", 32, 4, 2, 8},
    {"wide_banks", 8, 2, 2, 16},
    {"odd_banks", 18, 3, 2, 5},  // 30 banks in 3 groups: no power of two
};

using Case = std::tuple<Geometry, AdapterKind>;

class GeometrySweep : public ::testing::TestWithParam<Case> {
 protected:
  static SystemConfig makeConfig(const Case& c) {
    const auto& [g, adapter] = c;
    SystemConfig cfg;
    cfg.numCores = g.cores;
    cfg.coresPerTile = g.coresPerTile;
    cfg.tilesPerGroup = g.tilesPerGroup;
    cfg.banksPerTile = g.banksPerTile;
    cfg.wordsPerBank = 32;
    cfg.adapter = adapter;
    cfg.validate();
    return cfg;
  }
  static sync::RmwFlavor flavorFor(AdapterKind k) {
    switch (k) {
      case AdapterKind::kAmoOnly:
        return sync::RmwFlavor::kAmo;
      case AdapterKind::kLrscSingle:
      case AdapterKind::kLrscTable:
        return sync::RmwFlavor::kLrsc;
      default:
        return sync::RmwFlavor::kLrscWait;
    }
  }
};

sim::Task incr(System& sys, Core& core, sim::Addr a, int iters,
               sync::RmwFlavor flavor) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff bo(sync::BackoffPolicy::fixed(24), rng);
  for (int i = 0; i < iters; ++i) {
    const auto r = co_await sync::fetchAdd(core, flavor, a, 1, bo);
    EXPECT_TRUE(r.performed);
  }
}

// Property: no geometry loses an update under full contention.
TEST_P(GeometrySweep, ContendedIncrementsAreExact) {
  const auto cfg = makeConfig(GetParam());
  System sys(cfg);
  const auto a = sys.allocator().allocGlobal(1);
  constexpr int kIters = 25;
  for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
    sys.spawn(c,
              incr(sys, sys.core(c), a, kIters,
                   flavorFor(std::get<1>(GetParam()))));
  }
  sys.run();
  sys.rethrowFailures();
  EXPECT_TRUE(sys.allTasksDone());
  EXPECT_EQ(sys.peek(a), cfg.numCores * kIters);
}

// Property: per-bank traffic stays addressable — every word of every bank
// is reachable and holds what was stored, through peek and through the
// bank AddressMap::bankOf names as its owner (exercises the address map
// end to end on odd shapes).
TEST_P(GeometrySweep, EveryBankWordIsAddressable) {
  const auto cfg = makeConfig(GetParam());
  System sys(cfg);
  const AddressMap& map = sys.allocator().map();
  for (sim::Addr a = 0; a < cfg.numWords(); a += 7) {
    sys.poke(a, static_cast<sim::Word>(a * 2654435761u));
  }
  for (sim::Addr a = 0; a < cfg.numWords(); a += 7) {
    EXPECT_EQ(sys.peek(a), static_cast<sim::Word>(a * 2654435761u));
    EXPECT_EQ(sys.bank(map.bankOf(a)).read(a),
              static_cast<sim::Word>(a * 2654435761u));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Combine(::testing::ValuesIn(kGeometries),
                       ::testing::Values(AdapterKind::kAmoOnly,
                                         AdapterKind::kLrscSingle,
                                         AdapterKind::kLrscTable,
                                         AdapterKind::kLrscWait,
                                         AdapterKind::kColibri)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             colibri::test::paramName(toString(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace colibri::arch
