// Test double for BankContext: drives adapters directly (no network, no
// engine) and records every response and protocol message synchronously.
// This isolates the adapter protocol logic for unit testing; the
// integration tests cover the same adapters behind the real network.
#pragma once

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "atomics/adapter.hpp"

namespace colibri::test {

using atomics::BankContext;
using atomics::MemRequest;
using atomics::MemResponse;
using sim::Addr;
using sim::CoreId;
using sim::Word;

class MockBank final : public BankContext {
 public:
  struct Response {
    CoreId core;
    MemResponse resp;
  };
  struct SuccUpdate {
    CoreId target;
    CoreId successor;
    bool successorIsMwait;
  };

  [[nodiscard]] Word read(Addr a) const override {
    const auto it = mem_.find(a);
    return it == mem_.end() ? 0 : it->second;
  }
  void writeRaw(Addr a, Word v) override { mem_[a] = v; }
  void respond(CoreId c, const MemResponse& r) override {
    responses.push_back({c, r});
  }
  void sendSuccessorUpdate(CoreId target, CoreId successor,
                           bool isMwait) override {
    updates.push_back({target, successor, isMwait});
  }
  [[nodiscard]] sim::Cycle now() const override { return now_; }
  [[nodiscard]] sim::BankId bankId() const override { return 0; }
  [[nodiscard]] std::uint32_t numCores() const override { return numCores_; }

  void setNumCores(std::uint32_t n) { numCores_ = n; }
  void tick() { ++now_; }

  /// Pop the oldest recorded response (FIFO); fails the test if none.
  Response take() {
    EXPECT_FALSE(responses.empty());
    Response r = responses.front();
    responses.erase(responses.begin());
    return r;
  }

  std::vector<Response> responses;
  std::vector<SuccUpdate> updates;

 private:
  std::unordered_map<Addr, Word> mem_;
  sim::Cycle now_ = 0;
  std::uint32_t numCores_ = 8;
};

// Request builders.
inline MemRequest req(atomics::OpKind k, Addr a, Word v, CoreId c) {
  MemRequest r;
  r.kind = k;
  r.addr = a;
  r.value = v;
  r.core = c;
  return r;
}
inline MemRequest load(Addr a, CoreId c) {
  return req(atomics::OpKind::kLoad, a, 0, c);
}
inline MemRequest store(Addr a, Word v, CoreId c) {
  return req(atomics::OpKind::kStore, a, v, c);
}
inline MemRequest lr(Addr a, CoreId c) {
  return req(atomics::OpKind::kLr, a, 0, c);
}
inline MemRequest sc(Addr a, Word v, CoreId c) {
  return req(atomics::OpKind::kSc, a, v, c);
}
inline MemRequest lrwait(Addr a, CoreId c) {
  return req(atomics::OpKind::kLrWait, a, 0, c);
}
inline MemRequest scwait(Addr a, Word v, CoreId c) {
  return req(atomics::OpKind::kScWait, a, v, c);
}
inline MemRequest mwait(Addr a, Word expected, CoreId c) {
  return req(atomics::OpKind::kMwait, a, expected, c);
}
inline MemRequest wakeup(Addr a, CoreId successor, bool succIsMwait,
                         CoreId from) {
  auto r = req(atomics::OpKind::kWakeUp, a, successor, from);
  r.successorIsMwait = succIsMwait;
  return r;
}

}  // namespace colibri::test
