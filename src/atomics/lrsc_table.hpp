// ATUN-style LR/SC: one reservation entry per core per bank [11].
//
// Every core can hold its own reservation simultaneously (non-blocking
// LR/SC, CAS-like behavior): a write to an address invalidates *all*
// reservations on it, so under contention exactly one SC per round
// succeeds and the losers retry. The hardware cost of the full table is
// what Table I's area model charges for reservation-table designs.
//
// The model stores only the entries that are held, sorted by core id, so
// a bank's state and a write's invalidation scan grow with the
// reservations actually outstanding rather than with the core count.
#pragma once

#include <vector>

#include "atomics/adapter.hpp"

namespace colibri::atomics {

class LrscTableAdapter final : public AtomicAdapter {
 public:
  explicit LrscTableAdapter(BankContext& ctx) : AtomicAdapter(ctx) {}

  void handle(const MemRequest& req) override;
  void describeState(std::ostream& os) const override;

 private:
  struct Entry {
    CoreId core;
    Addr addr;
  };

  void onWrite(Addr a) override;
  /// The first held entry whose core is >= `c` (the slot for `c`).
  std::vector<Entry>::iterator slotFor(CoreId c);

  std::vector<Entry> held_;  // held reservations, ascending core id
};

}  // namespace colibri::atomics
