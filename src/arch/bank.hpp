// Memory bank: single-ported access + the atomic adapter.
//
// One Bank models one SPM bank. Requests arriving from the network are
// serialized through the single-ported bank (one per cycle, FIFO) and
// then handed to the adapter. The Bank implements BankContext so the
// adapter can read/write storage and emit responses/protocol messages,
// which it delivers to the System's cores and Qnodes.
// The words themselves live in the System's address-indexed SPM array;
// the bank only checks that an address is its own and in range. Its
// network link state (placement and FIFO clamps) lives here too. The
// System builds a Bank the first time something reaches it, so banks no
// request touches cost nothing.
#pragma once

#include <cstdint>
#include <memory>

#include "arch/address.hpp"
#include "arch/config.hpp"
#include "arch/memop.hpp"
#include "arch/network.hpp"
#include "atomics/adapter.hpp"
#include "sim/resource.hpp"

namespace colibri::arch {

class System;

struct BankStats {
  std::uint64_t requests = 0;  ///< requests that cleared the port
  void reset() { requests = 0; }
};

class Bank final : public atomics::BankContext {
 public:
  /// `spm` is the System's SPM, indexed by address: cfg.numWords() words
  /// that must outlive the bank. `fault` is the fault plan (null =
  /// injection off), which must outlive the bank too; the observability
  /// bundle is read through `sys`. Transient service stalls from the
  /// fault plan add cycles between the port grant and the adapter handling
  /// the request; in-order service is preserved by a monotone clamp.
  Bank(System& sys, const SystemConfig& cfg, BankId id, Word* spm,
       fault::FaultPlan* fault);

  /// Entry point from the network: arbitrate the port, then run the adapter.
  void receive(const MemRequest& req);

  // --- BankContext ----------------------------------------------------
  [[nodiscard]] Word read(Addr a) const override;
  void writeRaw(Addr a, Word v) override;
  void respond(CoreId c, const MemResponse& r) override;
  void sendSuccessorUpdate(CoreId target, CoreId successor,
                           bool successorIsMwait) override;
  [[nodiscard]] sim::Cycle now() const override;
  [[nodiscard]] BankId bankId() const override { return link_.bank(); }
  [[nodiscard]] std::uint32_t numCores() const override { return numCores_; }

  /// Cycles a request arriving at `now` would wait for the bank port — the
  /// congestion signal the network's backpressure proxy uses.
  [[nodiscard]] sim::Cycle backlog(sim::Cycle now) const {
    return port_.peek(now) - now;
  }

  [[nodiscard]] atomics::AtomicAdapter& adapter() { return *adapter_; }
  [[nodiscard]] const atomics::AtomicAdapter& adapter() const {
    return *adapter_;
  }
  [[nodiscard]] const BankStats& stats() const { return stats_; }
  void resetStats();

  /// This bank's end of the network, which requests towards it route
  /// through (Network::routeRequest).
  [[nodiscard]] BankLink& link() { return link_; }

 private:
  /// Check that `a` maps to this bank and lies inside the SPM.
  void checkOwned(Addr a) const;

  System& sys_;  ///< owns the engine, network and obs hooks this bank uses
  BankLink link_;
  std::uint32_t numCores_;
  AddressMap map_;
  Word* spm_;  ///< the System's storage, indexed by address
  sim::ThroughputResource port_;  ///< single port: one request per cycle
  sim::Cycle lastServe_ = 0;  ///< stall clamp: service stays in-order
  std::unique_ptr<atomics::AtomicAdapter> adapter_;
  BankStats stats_;
};

}  // namespace colibri::arch
