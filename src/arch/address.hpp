// Address mapping and a simple bump allocator for the simulated SPM.
//
// The modeled L1 is word-interleaved across all banks (as in MemPool):
// consecutive word addresses land in consecutive banks, so a dense array
// spreads across the whole machine while a stride of numBanks() stays
// inside one bank. The allocator hands out either interleaved (global)
// regions or tile-local regions (all words of which live in one tile's
// banks — used for MCS queue nodes so cores spin/wait locally).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "sim/check.hpp"
#include "sim/types.hpp"

namespace colibri::arch {

using sim::Addr;
using sim::BankId;
using sim::TileId;

class AddressMap {
 public:
  explicit AddressMap(const SystemConfig& cfg)
      : numBanks_(cfg.numBanks()),
        banksPerTile_(cfg.banksPerTile),
        wordsPerBank_(cfg.wordsPerBank),
        bankReciprocal_(~std::uint64_t{0} / numBanks_ + 1) {}

  /// a % numBanks() without a division, by direct remainder (Lemire,
  /// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019): the
  /// low 64 bits of a * ceil(2^64 / numBanks()) are the fraction of
  /// a / numBanks(), and scaling the fraction by numBanks() yields the
  /// remainder. Exact for every a < 2^32, which covers every address of a
  /// geometry SystemConfig::validate accepts (numWords() < 2^32). With one
  /// bank the reciprocal wraps to 0 and every address maps to bank 0, as it
  /// should. A larger (out-of-range) address still maps to a bank below
  /// numBanks(); the bank's own range check then rejects it.
  [[nodiscard]] BankId bankOf(Addr a) const {
    const std::uint64_t fraction = bankReciprocal_ * a;
    return static_cast<BankId>(
        (static_cast<unsigned __int128>(fraction) * numBanks_) >> 64);
  }
  [[nodiscard]] std::uint64_t offsetOf(Addr a) const { return a / numBanks_; }
  [[nodiscard]] TileId tileOfBank(BankId b) const { return b / banksPerTile_; }
  [[nodiscard]] TileId tileOf(Addr a) const { return tileOfBank(bankOf(a)); }

  [[nodiscard]] std::uint32_t numBanks() const { return numBanks_; }
  [[nodiscard]] std::uint32_t banksPerTile() const { return banksPerTile_; }
  [[nodiscard]] std::uint32_t wordsPerBank() const { return wordsPerBank_; }
  [[nodiscard]] std::uint64_t numWords() const {
    return static_cast<std::uint64_t>(numBanks_) * wordsPerBank_;
  }

  /// Address of word `offset` in bank `b` (inverse of bankOf/offsetOf).
  [[nodiscard]] Addr compose(BankId b, std::uint64_t offset) const {
    COLIBRI_CHECK(b < numBanks_ && offset < wordsPerBank_);
    return offset * numBanks_ + b;
  }

 private:
  std::uint32_t numBanks_;
  std::uint32_t banksPerTile_;
  std::uint32_t wordsPerBank_;
  std::uint64_t bankReciprocal_;  ///< ceil(2^64 / numBanks_), mod 2^64
};

/// Bump allocator over the simulated word space. Not thread-safe (the
/// simulator is single-threaded by design).
class Allocator {
 public:
  explicit Allocator(const SystemConfig& cfg) : map_(cfg) {}

  /// Allocate `n` consecutive word addresses (interleaved across banks).
  [[nodiscard]] Addr allocGlobal(std::uint64_t n);

  /// Allocate `n` words that all reside in banks of tile `t`. Returns the
  /// addresses (not necessarily contiguous).
  [[nodiscard]] std::vector<Addr> allocLocal(TileId t, std::uint64_t n);

  /// Allocate one word in a specific bank.
  [[nodiscard]] Addr allocInBank(BankId b);

  [[nodiscard]] const AddressMap& map() const { return map_; }

 private:
  AddressMap map_;
  // Offsets count whole interleaving rows (numBanks words). Global regions
  // take the rows below nextGlobalRow_; bank b's next free word sits at
  // max(cursors_[b], nextGlobalRow_), and highWater_ is the largest cursor.
  std::uint64_t nextGlobalRow_ = 0;
  std::uint64_t highWater_ = 0;
  std::vector<std::uint64_t> cursors_;  // empty until the first allocInBank
};

}  // namespace colibri::arch
