// Bank-side atomic adapter interface.
//
// Every memory bank has one adapter in front of it (Fig. 1 of the paper).
// The adapter owns all reservation state for its bank and decides when and
// what to respond. The Bank provides the BankContext services: raw word
// storage, sending responses and protocol messages back into the network,
// and the clock.
//
// Concrete adapters:
//   AmoAdapter        — AMO unit only (baseline roofline).
//   LrscSingleAdapter — one reservation slot per bank (MemPool [5]).
//   LrscTableAdapter  — one reservation per core (ATUN [11]).
//   LrscWaitAdapter   — LRSCwait_q in-order reservation queue (Sec. III-B).
//   ColibriAdapter    — distributed queue controller (Sec. IV).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "arch/config.hpp"
#include "arch/memop.hpp"
#include "sim/types.hpp"

namespace colibri::fault {
class FaultPlan;
}

namespace colibri::atomics {

using arch::MemRequest;
using arch::MemResponse;
using arch::OpKind;
using sim::Addr;
using sim::BankId;
using sim::CoreId;
using sim::Cycle;
using sim::Word;

/// Services a bank provides to its adapter.
class BankContext {
 public:
  virtual ~BankContext() = default;

  [[nodiscard]] virtual Word read(Addr a) const = 0;
  /// Raw storage write; does NOT trigger reservation invalidation (the
  /// adapter is the one doing the invalidating).
  virtual void writeRaw(Addr a, Word v) = 0;

  /// Send a response to a core through the network.
  virtual void respond(CoreId c, const MemResponse& r) = 0;
  /// Colibri: send a SuccessorUpdate to `target`'s Qnode. `successorIsMwait`
  /// tells the Qnode what kind of wait the successor queued (the bit is
  /// relayed in the eventual WakeUpRequest so the controller can serve the
  /// new head without per-waiter storage).
  virtual void sendSuccessorUpdate(CoreId target, CoreId successor,
                                   bool successorIsMwait) = 0;

  [[nodiscard]] virtual Cycle now() const = 0;
  [[nodiscard]] virtual BankId bankId() const = 0;
  [[nodiscard]] virtual std::uint32_t numCores() const = 0;

  /// The fault-injection plan, or nullptr when injection is off (the
  /// default — test mocks and fault-free systems never set it).
  [[nodiscard]] fault::FaultPlan* faultPlan() const { return faultPlan_; }

 protected:
  fault::FaultPlan* faultPlan_ = nullptr;  ///< set by the Bank
};

/// Per-adapter event counters (feed the energy model and tests).
struct AdapterStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t amos = 0;
  std::uint64_t lrGrants = 0;
  std::uint64_t lrFails = 0;  ///< immediate failures (queue full / unsupported)
  std::uint64_t scSuccesses = 0;
  std::uint64_t scFailures = 0;
  std::uint64_t mwaitWakes = 0;
  std::uint64_t successorUpdates = 0;
  std::uint64_t wakeUpRequests = 0;

  void reset() { *this = AdapterStats{}; }
};

class AtomicAdapter {
 public:
  explicit AtomicAdapter(BankContext& ctx) : ctx_(ctx) {}
  virtual ~AtomicAdapter() = default;
  AtomicAdapter(const AtomicAdapter&) = delete;
  AtomicAdapter& operator=(const AtomicAdapter&) = delete;

  /// Process one request that has cleared the bank port.
  virtual void handle(const MemRequest& req) = 0;

  /// One-line reservation/queue state summary for watchdog blame reports
  /// (e.g. which core owns the slot). Default: no interesting state.
  virtual void describeState(std::ostream& os) const;

  [[nodiscard]] const AdapterStats& stats() const { return stats_; }
  [[nodiscard]] AdapterStats& mutableStats() { return stats_; }

 protected:
  /// Handle load/store/AMO uniformly: every write goes through onWrite()
  /// first so the concrete adapter can invalidate reservations / wake
  /// monitors. Returns true if the request was one of those basic ops.
  bool handleBasic(const MemRequest& req);

  /// Called for every write (store, AMO, successful SC/SCwait) to `a`
  /// *before* the new value is committed.
  virtual void onWrite(Addr a) { (void)a; }

  BankContext& ctx_;
  AdapterStats stats_;
};

/// Factory: build the adapter selected by `cfg.adapter` for one bank.
std::unique_ptr<AtomicAdapter> makeAdapter(const arch::SystemConfig& cfg,
                                           BankContext& ctx);

}  // namespace colibri::atomics
