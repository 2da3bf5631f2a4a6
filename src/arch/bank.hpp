// Memory bank: word storage + single-ported access + the atomic adapter.
//
// One Bank models one SPM bank. Requests arriving from the network are
// serialized through the bank port (bankPortsPerCycle per cycle, FIFO) and
// then handed to the adapter. The Bank implements BankContext so the
// adapter can read/write storage and emit responses/protocol messages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "arch/address.hpp"
#include "arch/config.hpp"
#include "arch/memop.hpp"
#include "arch/network.hpp"
#include "atomics/adapter.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace colibri::obs {
struct SimHooks;
}

namespace colibri::arch {

/// Delivery interface back to the core side (implemented by System).
class CoreSink {
 public:
  virtual ~CoreSink() = default;
  virtual void deliverResponse(CoreId c, const MemResponse& r) = 0;
  virtual void deliverSuccessorUpdate(CoreId c, CoreId successor, Addr a,
                                      bool successorIsMwait) = 0;
};

struct BankStats {
  std::uint64_t requests = 0;  ///< requests that cleared the port
  void reset() { requests = 0; }
};

class Bank final : public atomics::BankContext {
 public:
  Bank(sim::Engine& engine, Network& net, CoreSink& sink,
       const SystemConfig& cfg, BankId id);

  /// Entry point from the network: arbitrate the port, then run the adapter.
  void receive(const MemRequest& req);

  // --- BankContext ----------------------------------------------------
  [[nodiscard]] Word read(Addr a) const override;
  void writeRaw(Addr a, Word v) override;
  void respond(CoreId c, const MemResponse& r) override;
  void sendSuccessorUpdate(CoreId target, CoreId successor, Addr a,
                           bool successorIsMwait) override;
  [[nodiscard]] sim::Cycle now() const override { return engine_.now(); }
  [[nodiscard]] BankId bankId() const override { return id_; }
  [[nodiscard]] std::uint32_t numCores() const override {
    return cfg_.numCores;
  }

  /// Cycles a request arriving now would wait for the bank port — the
  /// congestion signal the network's backpressure proxy uses.
  [[nodiscard]] sim::Cycle backlog() const {
    const auto now = engine_.now();
    return port_.peek(now) - now;
  }

  /// Attach the observability hook bundle (nullptr = off).
  void setObsHooks(const obs::SimHooks* hooks) { hooks_ = hooks; }

  /// Attach the fault plan (null = injection off). Transient service
  /// stalls add cycles between the port grant and the adapter handling
  /// the request; in-order service is preserved by a monotone clamp.
  void setFaultPlan(fault::FaultPlan* plan) { fault_ = plan; }
  [[nodiscard]] fault::FaultPlan* faultPlan() const override {
    return fault_;
  }

  [[nodiscard]] atomics::AtomicAdapter& adapter() { return *adapter_; }
  [[nodiscard]] const atomics::AtomicAdapter& adapter() const {
    return *adapter_;
  }
  [[nodiscard]] const BankStats& stats() const { return stats_; }
  void resetStats();

 private:
  [[nodiscard]] std::uint64_t offsetOf(Addr a) const;

  sim::Engine& engine_;
  Network& net_;
  CoreSink& sink_;
  SystemConfig cfg_;
  BankId id_;
  sim::ThroughputResource port_;
  sim::Cycle lastServe_ = 0;  ///< stall clamp: service stays in-order
  fault::FaultPlan* fault_ = nullptr;
  const obs::SimHooks* hooks_ = nullptr;
  std::vector<Word> words_;
  std::unique_ptr<atomics::AtomicAdapter> adapter_;
  BankStats stats_;
};

}  // namespace colibri::arch
