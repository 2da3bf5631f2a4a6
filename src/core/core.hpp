// Core model.
//
// A Core models one Snitch-like in-order core: it executes a workload
// kernel written as a C++20 coroutine that issues blocking memory
// operations (`co_await core.load(a)`), posted stores, and explicit compute
// delays. At most one memory operation is outstanding (single-issue,
// blocking pipeline), and consecutive issues are at least one cycle
// apart.
//
// Sleep accounting: while waiting for an LRwait/Mwait response the core is
// *asleep* (clock-gated — the polling-free property the paper measures);
// while waiting for loads/AMOs/SCs it is busy-stalled. The split feeds the
// energy model (Table II).
//
// The core's record holds its Colibri Qnode (driven only under the Colibri
// adapter). The Qnode events fire when an operation physically passes it
// (at request departure), matching the Colibri protocol ordering, and the
// core injects the WakeUpRequests the Qnode dispatches.
//
// The core's one pending continuation is a `Resume` — a plain function and
// its context — so a multi-step primitive (sync::fetchAdd) can chain its
// memory ops and delays through callbacks without a coroutine frame of its
// own; a coroutine awaiting a single op wraps its handle in one.
#pragma once

#include <coroutine>
#include <cstdint>

#include "arch/memop.hpp"
#include "atomics/qnode.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace colibri::obs {
struct SimHooks;
}

namespace colibri::arch {
class System;

using sim::Cycle;

/// A continuation: `fn(ctx)` runs when the awaited op or delay is done.
struct Resume {
  void (*fn)(void*) = nullptr;
  void* ctx = nullptr;

  /// Resume the suspended coroutine `h`.
  static Resume of(std::coroutine_handle<> h) {
    return {[](void* p) { std::coroutine_handle<>::from_address(p).resume(); },
            h.address()};
  }
  void operator()() const { fn(ctx); }
};

struct CoreStats {
  std::uint64_t issued = 0;         ///< memory operations issued
  std::uint64_t computeCycles = 0;  ///< explicit delay() cycles
  std::uint64_t sleepCycles = 0;    ///< LRwait/Mwait waits
  std::uint64_t stallCycles = 0;    ///< load/AMO/SC waits

  void reset() { *this = CoreStats{}; }
};

/// One core's whole record (identity, pipeline state, Qnode, stats):
/// System keeps all of them in one array, and a core is nothing more.
class Core {
 public:
  Core(System& sys, CoreId id) : sys_(sys), id_(id) {}
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  [[nodiscard]] CoreId id() const { return id_; }

  // --- Workload-facing awaitables ---------------------------------------
  struct [[nodiscard]] MemAwait {
    Core& core;
    MemRequest req;
    MemResponse resp{};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (req.kind == OpKind::kStore) {
        core.post(req, h);
      } else {
        core.issue(req, Resume::of(h), &resp);
      }
    }
    MemResponse await_resume() const noexcept { return resp; }
  };

  struct [[nodiscard]] DelayAwait {
    Core& core;
    Cycle cycles;
    bool await_ready() const noexcept { return cycles == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      core.delayed(cycles, Resume::of(h));
    }
    void await_resume() const noexcept {}
  };

  MemAwait op(OpKind k, sim::Addr a, sim::Word v = 0) {
    return MemAwait{*this, MemRequest{a, v, id_, k, false}, {}};
  }
  MemAwait load(sim::Addr a) { return op(OpKind::kLoad, a); }
  MemAwait store(sim::Addr a, sim::Word v) { return op(OpKind::kStore, a, v); }
  MemAwait amoAdd(sim::Addr a, sim::Word v) { return op(OpKind::kAmoAdd, a, v); }
  MemAwait amoSwap(sim::Addr a, sim::Word v) {
    return op(OpKind::kAmoSwap, a, v);
  }
  MemAwait lr(sim::Addr a) { return op(OpKind::kLr, a); }
  MemAwait sc(sim::Addr a, sim::Word v) { return op(OpKind::kSc, a, v); }
  MemAwait lrWait(sim::Addr a) { return op(OpKind::kLrWait, a); }
  MemAwait scWait(sim::Addr a, sim::Word v) { return op(OpKind::kScWait, a, v); }
  /// Sleep until `a` is written (or immediately if *a != expected).
  MemAwait mwait(sim::Addr a, sim::Word expected) {
    return op(OpKind::kMwait, a, expected);
  }
  /// Busy-compute for `n` cycles (models non-memory instructions).
  DelayAwait delay(Cycle n) { return DelayAwait{*this, n}; }

  // --- Continuation primitives ------------------------------------------
  /// Issue the blocking op `req` (not a store); when its response arrives
  /// it is written to `*out` and `k` runs.
  void issue(const MemRequest& req, Resume k, MemResponse* out);
  /// Compute for `n` > 0 cycles, then run `k`.
  void delayed(Cycle n, Resume k);

  // --- Simulation plumbing ----------------------------------------------
  /// Attach and start the workload coroutine.
  void run(sim::Task task);
  /// Response delivery (called by System when the network delivers).
  void complete(const MemResponse& r);
  /// A Colibri SuccessorUpdate reaches this core's Qnode (called by System
  /// when the network delivers); throws sim::InvariantViolation under any
  /// other adapter, whose cores have no Qnode in use.
  void onSuccessorUpdate(CoreId successor, bool successorIsMwait);
  /// Propagate an exception that escaped the task, if any.
  void rethrowIfFailed() const { task_.rethrowIfFailed(); }
  [[nodiscard]] bool hasOutstandingOp() const {
    return pending_.fn != nullptr;
  }

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }
  /// The core's Colibri Qnode (idle forever under other adapters).
  [[nodiscard]] const atomics::Qnode& qnode() const { return queueNode_; }

  /// The System's observability hook bundle (null = off); used by the sync
  /// primitives to count retries against the issuing core.
  [[nodiscard]] const obs::SimHooks* obsHooks() const;

 private:
  /// Issue the posted store `req`; `h` resumes right after the issue slot.
  /// It keeps the coroutine handle: {this, req, h} fills the inline event
  /// buffer exactly, and a Resume would not fit.
  void post(const MemRequest& req, std::coroutine_handle<> h);
  /// Take the issue slot for `req`: returns the cycle it departs.
  [[nodiscard]] Cycle claimIssueSlot(const MemRequest& req);
  [[nodiscard]] Cycle nextIssueCycle() const;
  /// True iff the System runs the Colibri adapter, the only one whose
  /// protocol drives the Qnode.
  [[nodiscard]] bool colibri() const;
  /// Inject the WakeUpRequest `w` on this core's request path, if any.
  void sendWakeUp(const atomics::WakeUp& w);

  System& sys_;
  sim::Task task_;

  // Pipeline state of the one outstanding operation; System reads it for
  // the watchdog and blame reports.
  Resume pending_{};
  MemResponse* pendingOut_ = nullptr;
  Cycle pendingSince_ = 0;
  sim::Addr pendingAddr_ = 0;
  Cycle lastIssue_ = 0;
  /// Last cycle this core retired a *productive* operation: anything but a
  /// reservation acquire (LR/LRwait), a failed SC/SCwait or an Mwait
  /// refused by a full queue. A core spinning in an acquire-fail-retry loop
  /// never advances this — exactly the signal the watchdog needs to tell
  /// livelock/deadlock from slow progress.
  Cycle lastProductive_ = 0;
  CoreStats stats_;
  atomics::Qnode queueNode_;
  CoreId id_;
  OpKind pendingKind_ = OpKind::kLoad;
  bool hasIssued_ = false;

  friend class System;
};

// System construction writes one record per core; keep it within 128 B.
static_assert(sizeof(Core) <= 128);

}  // namespace colibri::arch
