// LRSCwait_q: the centralized reservation-queue implementation of
// LRwait/SCwait/Mwait (paper Sections III-A/III-B).
//
// Each bank adapter holds an in-order queue of at most `capacity` waiting
// reservations (any mix of addresses). The oldest entry per address is
// "served": an LRwait gets its response (grant) and holds a reservation; an
// Mwait is checked against its expected value and then monitors the
// address. Capacity == numCores reproduces LRSCwait_ideal; smaller
// capacities fail LRwaits to a full queue immediately (the core retries in
// software), trading hardware for performance exactly as in Section III-B.
//
// Unlike Colibri there are no protocol messages: the queue lives wholly in
// the adapter, which is why its hardware cost (Table I) grows with q.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atomics/adapter.hpp"

namespace colibri::atomics {

class LrscWaitAdapter final : public AtomicAdapter {
 public:
  LrscWaitAdapter(BankContext& ctx, std::uint32_t capacity)
      : AtomicAdapter(ctx), capacity_(capacity) {}

  void handle(const MemRequest& req) override;
  void describeState(std::ostream& os) const override;

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t occupancy() const { return queue_.size(); }

  /// True iff `core` currently holds a served (granted) LRwait on `a` with
  /// a still-valid reservation. Exposed for invariant checking in tests.
  [[nodiscard]] bool holdsGrant(CoreId core, Addr a) const;

 private:
  struct Entry {
    CoreId core = sim::kNoCore;
    Addr addr = 0;
    bool isMwait = false;
    Word expected = 0;  // Mwait only
    bool served = false;
    bool resvValid = false;  // LRwait only, meaningful when served
  };

  void onWrite(Addr a) override;

  /// Serve every address whose oldest entry is not yet served. May remove
  /// entries (Mwait immediate wake), so it loops to a fixed point.
  void pump();

  /// Serve entry `i` (must be the oldest for its address). Returns true if
  /// the entry was consumed (removed from the queue).
  bool serve(std::size_t i);

  [[nodiscard]] bool hasEarlierForAddr(std::size_t i, Addr a) const;

  std::uint32_t capacity_;
  /// FIFO arrival order; erased in place. Its storage grows to the peak
  /// occupancy once and is reused, so an enqueue allocates nothing.
  std::vector<Entry> queue_;
};

}  // namespace colibri::atomics
