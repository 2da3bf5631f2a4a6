// Memory operation types exchanged between cores, the interconnect, and the
// bank-side atomic adapters.
//
// The operation set mirrors what the paper's cores can issue:
//  - plain load/store,
//  - RISC-V "A" extension AMOs (add/swap/and/or/xor/min/max) executed by an
//    AMO unit at the bank,
//  - LR/SC (standard reserved pair),
//  - LRwait/SCwait/Mwait (the paper's extension, Section III),
//  - WakeUpRequest: Colibri's Qnode-to-controller protocol message
//    (Section IV). It shares the request path (and bank-port arbitration)
//    with regular requests, as it would in hardware.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/types.hpp"

namespace colibri::arch {

using sim::Addr;
using sim::CoreId;
using sim::Word;

enum class OpKind : std::uint8_t {
  kLoad,
  kStore,
  kAmoAdd,
  kAmoSwap,
  kAmoAnd,
  kAmoOr,
  kAmoXor,
  kAmoMax,
  kAmoMin,
  kLr,
  kSc,
  kLrWait,
  kScWait,
  kMwait,
  kWakeUp,  // Colibri WakeUpRequest (value = successor core id)
};

[[nodiscard]] constexpr bool isAmo(OpKind k) {
  return k >= OpKind::kAmoAdd && k <= OpKind::kAmoMin;
}

/// Ops whose response the issuing core blocks on. Stores are posted
/// (fire-and-forget), as in the modeled Snitch cores.
[[nodiscard]] constexpr bool expectsResponse(OpKind k) {
  return k != OpKind::kStore && k != OpKind::kWakeUp;
}

/// Ops during which the core *sleeps* (clock-gated) rather than busy-stalls:
/// the polling-free property of the paper's extension.
[[nodiscard]] constexpr bool isSleepingWait(OpKind k) {
  return k == OpKind::kLrWait || k == OpKind::kMwait;
}

[[nodiscard]] std::string_view toString(OpKind k);

/// Apply an AMO to a memory word; returns the new memory value.
[[nodiscard]] Word applyAmo(OpKind k, Word mem, Word operand);

/// Fields run from widest to narrowest, so the request packs into 24 bytes
/// and the core's issue closure (this + request + coroutine handle) fits
/// sim::InlineEvent's 40-byte buffer.
struct MemRequest {
  Addr addr = 0;
  /// Store data / AMO operand / SCwait data / Mwait expected value /
  /// WakeUpRequest successor id.
  Word value = 0;
  CoreId core = sim::kNoCore;
  OpKind kind = OpKind::kLoad;
  /// kWakeUp only: whether the successor's queued operation is an Mwait
  /// (vs. an LRwait). The bit originates at the controller (which saw the
  /// successor's request) and travels via SuccessorUpdate through the
  /// predecessor's Qnode — so the controller can serve a woken head without
  /// storing per-waiter state.
  bool successorIsMwait = false;
};
static_assert(sizeof(MemRequest) == 24, "MemRequest must stay 24 bytes");

struct MemResponse {
  /// Loaded value / old value (AMO) / reserved value (LR, LRwait) /
  /// current value (Mwait wake).
  Word value = 0;
  /// SC/SCwait success; LRwait/Mwait admission (false = queue full, retry).
  bool ok = true;
  /// For SCwait/Mwait responses: true iff the responder was the queue tail,
  /// i.e. no successor exists and the Qnode may reset (Section IV-A).
  bool lastInQueue = true;
};

}  // namespace colibri::arch
