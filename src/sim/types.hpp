// Fundamental scalar types shared across the simulator.
//
// The simulator measures time in clock cycles of the modeled manycore
// fabric (the paper's MemPool runs at 600 MHz; cycle counts are what the
// evaluation reports, so cycles are the native unit here).
#pragma once

#include <cstdint>
#include <limits>

namespace colibri::sim {

/// Simulated time in clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "no deadline" / "never".
inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/// Identifier types. Plain integers are kept (the simulator indexes dense
/// arrays with them) but aliased for readability at interfaces.
using CoreId = std::uint32_t;
using TileId = std::uint32_t;
using GroupId = std::uint32_t;
using BankId = std::uint32_t;

/// Sentinel core id (used e.g. for "queue slot empty" in Colibri state).
inline constexpr CoreId kNoCore = std::numeric_limits<CoreId>::max();

/// Simulated memory addresses are word-granular: the modeled SPM is
/// word-interleaved across banks and all atomics in the paper operate on
/// 32-bit words, so a word index is the natural address unit.
using Addr = std::uint64_t;

/// Simulated 32-bit memory word (RISC-V RV32 data path, as in MemPool).
using Word = std::uint32_t;

}  // namespace colibri::sim
