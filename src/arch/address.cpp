#include "arch/address.hpp"

#include <algorithm>

namespace colibri::arch {

Addr Allocator::allocGlobal(std::uint64_t n) {
  const std::uint64_t numBanks = map_.numBanks();
  // Start past every bank cursor so interleaved rows never collide with
  // earlier bank-local allocations.
  const std::uint64_t row = std::max(nextGlobalRow_, highWater_);
  const Addr base = row * numBanks;
  COLIBRI_CHECK_MSG(base + n <= map_.numWords(), "SPM exhausted (global)");
  nextGlobalRow_ = row + (n + numBanks - 1) / numBanks;
  return base;
}

std::vector<Addr> Allocator::allocLocal(TileId t, std::uint64_t n) {
  std::vector<Addr> out;
  out.reserve(n);
  const std::uint32_t banksPerTile = map_.banksPerTile();
  const BankId first = t * banksPerTile;
  for (std::uint64_t i = 0; i < n; ++i) {
    // Round-robin across the tile's banks to spread local traffic.
    const BankId b = first + static_cast<BankId>(i % banksPerTile);
    out.push_back(allocInBank(b));
  }
  return out;
}

Addr Allocator::allocInBank(BankId b) {
  COLIBRI_CHECK(b < map_.numBanks());
  if (cursors_.empty()) {
    cursors_.assign(map_.numBanks(), 0);
  }
  // Bank-local words start above the rows global regions already took.
  std::uint64_t& cursor = cursors_[b];
  cursor = std::max(cursor, nextGlobalRow_);
  COLIBRI_CHECK_MSG(cursor < map_.wordsPerBank(), "SPM exhausted (bank)");
  highWater_ = std::max(highWater_, cursor + 1);
  return map_.compose(b, cursor++);
}

}  // namespace colibri::arch
