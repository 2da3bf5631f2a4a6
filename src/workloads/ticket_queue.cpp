#include "workloads/ticket_queue.hpp"

#include "sim/check.hpp"

namespace colibri::workloads {

TicketQueue TicketQueue::create(arch::System& sys, std::uint32_t capacity,
                                const std::vector<sim::Word>& prefill) {
  // With one slot, "full for ticket t" (seq t+1) and "free for ticket t+1"
  // (seq h + capacity = t+1) are the same value: an enqueuer would
  // overwrite a value its dequeuer has not read yet.
  COLIBRI_CHECK_MSG(capacity >= 2, "ticket queue needs capacity >= 2");
  COLIBRI_CHECK(prefill.size() <= capacity);
  TicketQueue q;
  q.capacity_ = capacity;
  auto& alloc = sys.allocator();
  q.tail_ = alloc.allocGlobal(1);
  q.head_ = alloc.allocGlobal(1);
  const sim::Addr seqBase = alloc.allocGlobal(capacity);
  const sim::Addr valBase = alloc.allocGlobal(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    q.seq_.push_back(seqBase + i);
    q.val_.push_back(valBase + i);
    sys.poke(seqBase + i, i);
    sys.poke(valBase + i, 0);
  }
  for (std::uint32_t i = 0; i < prefill.size(); ++i) {
    sys.poke(valBase + i, prefill[i]);
    sys.poke(seqBase + i, i + 1);  // published
  }
  sys.poke(q.tail_, static_cast<sim::Word>(prefill.size()));
  sys.poke(q.head_, 0);
  return q;
}

sim::Co<void> TicketQueue::awaitValue(arch::Core& core, sim::Addr a,
                                      sim::Word want, bool useMwait,
                                      sync::Backoff& backoff) {
  auto cur = co_await core.load(a);
  while (cur.value != want) {
    if (!useMwait) {
      co_await core.delay(8);
      cur = co_await core.load(a);
      continue;
    }
    const auto r = co_await core.mwait(a, cur.value);
    if (!r.ok) {
      // Monitor queue full: paced reload.
      co_await core.delay(backoff.next());
      cur = co_await core.load(a);
      continue;
    }
    cur.value = r.value;
  }
}

sim::Co<void> TicketQueue::enqueue(arch::Core& core, sim::Word v,
                                   sync::RmwFlavor flavor, bool useMwait,
                                   sync::Backoff& backoff) {
  const auto t =
      co_await sync::fetchAdd(core, flavor, tail_, 1, backoff, nullptr);
  const std::uint32_t slot = t.old % capacity_;
  co_await awaitValue(core, seq_[slot], t.old, useMwait, backoff);
  // Acked store: the value must commit before the sequence word releases
  // the slot to a consumer (cross-bank store ordering, see spinlock.hpp).
  (void)co_await core.amoSwap(val_[slot], v);
  (void)co_await core.store(seq_[slot], t.old + 1);
}

sim::Co<sim::Word> TicketQueue::dequeue(arch::Core& core,
                                        sync::RmwFlavor flavor, bool useMwait,
                                        sync::Backoff& backoff,
                                        sim::Word* ticketOut) {
  const auto h =
      co_await sync::fetchAdd(core, flavor, head_, 1, backoff, nullptr);
  const std::uint32_t slot = h.old % capacity_;
  co_await awaitValue(core, seq_[slot], h.old + 1, useMwait, backoff);
  const auto v = co_await core.load(val_[slot]);
  // The enqueuer `capacity` tickets later reads the sequence word before
  // touching val, so a posted store suffices here.
  (void)co_await core.store(seq_[slot], h.old + capacity_);
  if (ticketOut != nullptr) {
    *ticketOut = h.old;
  }
  co_return v.value;
}

}  // namespace colibri::workloads
