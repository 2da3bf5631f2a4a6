// System: the whole modeled manycore — engine, network, banks (with their
// atomic adapters and link state), cores (with their Qnodes), and the SPM
// allocator.
//
// Construction wires everything except the banks, in a constant number of
// heap blocks: one record per core, one Qnode per core and one pointer per
// bank, each kind in one array. A bank, its adapter and its network link
// state are built the first time a request, a bank() call or a blame
// report reaches it, so construction and teardown cost grows with the
// banks a workload touches, not with the geometry. Workloads are attached
// per core as coroutines and the simulation is driven with
// run()/runUntil(). Teardown clears the event queue before destroying
// coroutine frames so no stale event can touch a dead frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/address.hpp"
#include "arch/bank.hpp"
#include "arch/config.hpp"
#include "arch/network.hpp"
#include "atomics/qnode.hpp"
#include "core/core.hpp"
#include "fault/fault.hpp"
#include "fault/watchdog.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/fixed_array.hpp"
#include "sim/task.hpp"

namespace colibri::obs {
struct SimHooks;
}

namespace colibri::arch {

/// The SPM's words as one anonymous private mapping, indexed by address.
/// The kernel backs it with shared zero pages until a word is written, so
/// mapping it writes nothing and untouched words cost no resident memory
/// (a zero-filled vector would touch every page at construction).
class SpmStorage {
 public:
  explicit SpmStorage(std::uint64_t words);
  ~SpmStorage();

  SpmStorage(const SpmStorage&) = delete;
  SpmStorage& operator=(const SpmStorage&) = delete;

  [[nodiscard]] sim::Word* data() const { return words_; }

 private:
  sim::Word* words_;
  std::size_t bytes_;
};

class System final : public atomics::WakeUpSink {
 public:
  explicit System(const SystemConfig& cfg);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] Allocator& allocator() { return alloc_; }
  [[nodiscard]] const Topology& topology() const { return net_.topology(); }

  // The accessors throw sim::InvariantViolation past the last core/bank.
  [[nodiscard]] Core& core(CoreId c) {
    COLIBRI_CHECK_MSG(c < numCores(), "core " << c << " of " << numCores());
    return cores_[c];
  }
  /// Bank `b`, built here if nothing has reached it yet.
  [[nodiscard]] Bank& bank(BankId b) {
    COLIBRI_CHECK_MSG(b < numBanks(), "bank " << b << " of " << numBanks());
    return bankUnchecked(b);
  }
  /// The banks built so far, in build order. A bank never built has
  /// served no request and holds no state, so sums over its counters are
  /// zero. The span is valid until the next bank is built.
  [[nodiscard]] std::span<const std::unique_ptr<Bank>> builtBanks() const {
    return built_;
  }
  [[nodiscard]] atomics::Qnode& qnode(CoreId c) {
    COLIBRI_CHECK_MSG(c < numCores(), "qnode " << c << " of " << numCores());
    return qnodes_[c];
  }
  [[nodiscard]] std::uint32_t numCores() const { return cfg_.numCores; }
  [[nodiscard]] std::uint32_t numBanks() const {
    return alloc_.map().numBanks();
  }

  /// Attach a workload coroutine to a core and start it at the current time.
  void spawn(CoreId c, sim::Task task);

  /// Direct (zero-sim-time) memory access for setup and verification.
  /// Reads and writes the SPM without building a bank; throws
  /// sim::InvariantViolation past the last word.
  [[nodiscard]] sim::Word peek(sim::Addr a) const;
  void poke(sim::Addr a, sim::Word v);

  /// Run until the event queue drains (all cores finished or asleep).
  void run();
  /// Run events up to and including `horizon`.
  void runUntil(sim::Cycle horizon);
  /// Schedule `fn` at an absolute cycle (e.g. to flip a stop flag).
  void at(sim::Cycle when, std::function<void()> fn);

  [[nodiscard]] sim::Cycle now() const { return engine_.now(); }

  /// Rethrow the first exception that escaped any core's task, if any.
  void rethrowFailures() const;

  /// True iff every spawned task ran to completion (none still asleep).
  [[nodiscard]] bool allTasksDone() const;

  /// Run to the end, rethrow any task failure, and check that every task
  /// finished; the check names `who` ("<who> failed to drain").
  void drain(const char* who);

  /// Inject a request from a core into the network towards the owning bank.
  /// Used by Core::issue and by Qnodes dispatching WakeUpRequests.
  void injectRequest(CoreId from, const MemRequest& req);

  /// Reset all measurement counters (cores, banks, network) — typically at
  /// the end of a warmup phase. Reservation/protocol state is preserved.
  void resetStats();

  /// Null unless a Recorder was attached via SystemConfig::recorder.
  [[nodiscard]] const obs::SimHooks* obsHooks() const {
    return obsHooks_.get();
  }

  /// True iff a fault plan is active (some fault probability nonzero).
  [[nodiscard]] bool faultActive() const { return faultPlan_ != nullptr; }

  /// Per-site injected-fault counts; all zero when no plan is active.
  [[nodiscard]] fault::FaultCounters faultCounters() const {
    return faultPlan_ != nullptr ? faultPlan_->counters()
                                 : fault::FaultCounters{};
  }

  /// The resolved fault seed (explicit, or derived from the system seed);
  /// 0 when no plan is active.
  [[nodiscard]] std::uint64_t faultSeed() const {
    return faultPlan_ != nullptr ? faultPlan_->config().seed : 0;
  }

  /// Structured hang diagnosis: per stuck core its outstanding request,
  /// target bank and progress timestamps, plus the reservation state of
  /// every bank those requests point at. Used by the watchdog's blame
  /// hook and exposed for tests.
  [[nodiscard]] std::string blameReport(sim::Cycle now);

  // --- Bank -> core delivery ---------------------------------------------
  /// A response reaches core `c`'s pipeline.
  void deliverResponse(CoreId c, const MemResponse& r);
  /// A Colibri SuccessorUpdate reaches core `c`'s Qnode.
  void deliverSuccessorUpdate(CoreId c, CoreId successor,
                              bool successorIsMwait);

  // --- WakeUpSink --------------------------------------------------------
  void sendWakeUp(CoreId from, CoreId successor, bool successorIsMwait,
                  sim::Addr addr) override;

 private:
  /// Register metrics/probes and distribute hook pointers (recorder set).
  void attachObservability();
  /// bank(b) without the range check, for ids from AddressMap::bankOf.
  Bank& bankUnchecked(BankId b) {
    Bank* built = banks_[b];
    return built != nullptr ? *built : buildBank(b);
  }
  /// Build bank `b` and its adapter; bank() calls this on first use.
  Bank& buildBank(BankId b);
  /// Latest productive retirement of any core (the watchdog's signal).
  [[nodiscard]] sim::Cycle lastProductive() const;

  SystemConfig cfg_;
  sim::Engine engine_;
  Network net_;
  Allocator alloc_;
  SpmStorage spm_;  // declared before banks_: it must outlive them
  std::unique_ptr<Bank*[]> banks_;  // by id; null until first use
  std::vector<std::unique_ptr<Bank>> built_;  // owns them, in build order
  sim::FixedArray<atomics::Qnode> qnodes_;  // wired only under Colibri
  sim::FixedArray<Core> cores_;             // built in place, one block
  // Hook bundle handed to cores/banks/sync; owned here so those raw
  // pointers stay valid for the System's whole lifetime. Banks built
  // later receive it (and the fault plan) at construction.
  std::unique_ptr<obs::SimHooks> obsHooks_;
  // Fault-injection plan (null when disabled) and the hang watchdog (null
  // when watchdogCycles == 0). Banks and the network hold raw pointers to
  // the plan; the engine holds a raw ProgressProbe pointer to the watchdog.
  std::unique_ptr<fault::FaultPlan> faultPlan_;
  std::unique_ptr<fault::Watchdog> watchdog_;
};

}  // namespace colibri::arch
