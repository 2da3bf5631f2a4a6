// MemPool-style LR/SC: a single reservation slot per bank [5].
//
// The slot is taken by the first LR and held until the owner's SC (success
// or failure) or until a write to the reserved address invalidates it. An
// LR from a *different* core while the slot is busy returns the current
// value but places no reservation — its SC will fail and the core retries.
// This is the lightweight design the paper describes as "sacrificing the
// non-blocking property": under contention every non-owner burns LR/SC
// round trips and backoff, producing the retry traffic the paper measures,
// while the owner still makes (slow) progress.
#pragma once

#include "atomics/adapter.hpp"

namespace colibri::atomics {

class LrscSingleAdapter final : public AtomicAdapter {
 public:
  using AtomicAdapter::AtomicAdapter;

  void handle(const MemRequest& req) override;
  void describeState(std::ostream& os) const override;

  /// Owner of the reservation slot, if valid (for tests).
  [[nodiscard]] bool slotValid() const { return valid_; }
  [[nodiscard]] CoreId slotOwner() const { return core_; }

 private:
  void onWrite(Addr a) override;
  void commit(const MemRequest& req);

  bool valid_ = false;
  CoreId core_ = sim::kNoCore;
  Addr addr_ = 0;
};

}  // namespace colibri::atomics
