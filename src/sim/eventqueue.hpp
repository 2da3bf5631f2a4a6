// Two-level calendar queue: the engine's pending-event store.
//
// The near future — a window of kBucketCount consecutive cycles starting
// at the last dispatched cycle — is a ring of per-cycle FIFO buckets
// (intrusive singly-linked lists of pooled nodes), with a bitmap of
// non-empty buckets so finding the next cycle is a handful of word scans.
// Network and bank delays are small config constants, so virtually every
// event lands in this window: schedule and dispatch are O(1) and touch no
// allocator (nodes come from a free-list refilled in chunks).
//
// A node is one 64-byte cache line: {next, seq, InlineEvent}. A bucket
// node's cycle is its bucket's, so only overflow entries carry `when`.
//
// Events beyond the window go to an overflow binary heap of {when, node}
// ordered by (when, seq). Overflow entries are never migrated; dispatch
// compares the earliest bucket cycle against the heap top. On a tie the
// overflow entry runs first: it was scheduled while the cursor was at
// least kBucketCount cycles behind its cycle, every bucket entry of that
// cycle was scheduled later (the cursor never moves back), so the overflow
// entry has the lower sequence number. The execution order is therefore
// exactly the (when, seq) total order a single binary heap would produce,
// which makes the queue swap bit-transparent to every simulation.
//
// runBatchIfAtMost is the one dispatch path: it runs one cycle's events
// in place inside their unlinked nodes, so a scheduled event never moves.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/event.hpp"
#include "sim/types.hpp"

namespace colibri::sim {

class EventQueue {
 public:
  /// Window length in cycles; power of two (index = when & (N-1)).
  static constexpr std::size_t kBucketCount = 1024;
  /// Pool growth granularity.
  static constexpr std::size_t kNodesPerChunk = 256;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() { clear(); }

  /// Append an event; FIFO among events with equal `when`. Precondition,
  /// not checked here: `when` >= the cycle of the most recently popped
  /// event. Engine::scheduleAt, the only caller outside the tests,
  /// enforces it by rejecting `when` < now(), and now() never falls below
  /// that cycle. The callable (any void() closure that fits InlineEvent's
  /// buffer) is constructed directly inside a pooled node — no
  /// intermediate moves.
  template <typename F>
  void schedule(Cycle when, F&& f);

  /// Run the events of the earliest pending cycle if it is <= horizon.
  /// Each event runs in place inside its (already unlinked) node: the
  /// queue calls `before(when, seq)`, then runs and destroys the closure
  /// with one InlineEvent::run(). The node returns to the free-list even
  /// if the callable throws. The occupancy bitmap is scanned once per
  /// cycle, not once per event. Events the callables schedule for the
  /// same cycle join the drain (FIFO). While the earliest cycle has
  /// overflow entries, one call runs just one of them (they precede the
  /// cycle's bucket). Returns how many events ran (0 if none were due);
  /// the order is exactly (when, seq).
  template <typename F>
  std::size_t runBatchIfAtMost(Cycle horizon, F&& before);

  /// Cycle of the earliest pending event; kCycleNever when empty.
  [[nodiscard]] Cycle minWhen() const;

  /// Drop every pending event without running it: destroys the callables
  /// and splices the nodes back onto the free-list — no heap traffic, no
  /// per-item heap rebalancing.
  void clear() noexcept;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // --- Introspection (tests / stats) ------------------------------------
  /// Total nodes ever allocated from the pool. A steady-state workload
  /// stops moving this counter once the free-list covers its live set.
  [[nodiscard]] std::size_t allocatedNodes() const noexcept {
    return chunks_.size() * kNodesPerChunk;
  }
  /// Events currently parked in the far-future overflow heap.
  [[nodiscard]] std::size_t overflowSize() const noexcept {
    return overflow_.size();
  }

 private:
  /// One cache line; chunks of them are 64-byte aligned.
  struct alignas(64) Node {
    Node* next = nullptr;
    std::uint64_t seq = 0;
    InlineEvent ev;
  };
  static_assert(sizeof(Node) == 64, "an event node is one cache line");

  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  /// Overflow-heap entry: a node beyond the window and its cycle.
  struct Far {
    Cycle when;
    Node* node;
  };

  static constexpr std::size_t kBitmapWords = kBucketCount / 64;

  /// Later-first comparison, i.e. `overflow_` is a max-heap of "later"
  /// so its front is the earliest (when, seq).
  static bool later(const Far& a, const Far& b) noexcept {
    return a.when != b.when ? a.when > b.when : a.node->seq > b.node->seq;
  }

  /// Returns an unlinked node to the free-list when it leaves scope, also
  /// when the event running in it throws.
  struct NodeReturn {
    EventQueue* q;
    Node* n;
    ~NodeReturn() { q->freeNode(n); }
  };

  Node* allocNode() {
    if (freeList_ == nullptr) {
      refillPool();
    }
    Node* n = freeList_;
    freeList_ = n->next;
    return n;
  }
  void freeNode(Node* n) noexcept {
    n->next = freeList_;
    freeList_ = n;
  }
  void refillPool();

  /// Earliest non-empty bucket cycle, by a scan of the occupancy bitmap;
  /// requires bucketCount_ > 0.
  [[nodiscard]] Cycle bucketMinWhen() const;

  std::array<Bucket, kBucketCount> buckets_{};
  std::array<std::uint64_t, kBitmapWords> occupied_{};
  std::vector<Far> overflow_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* freeList_ = nullptr;
  Cycle cursor_ = 0;  ///< lower bound of the bucket window
  std::uint64_t nextSeq_ = 0;
  std::size_t size_ = 0;
  std::size_t bucketCount_ = 0;  ///< events in buckets (rest in overflow_)
};

// --- Hot-path definitions (kept in the header so the per-event schedule
// and dispatch cost is a handful of inlined loads/stores) -----------------

template <typename F>
inline void EventQueue::schedule(Cycle when, F&& f) {
  Node* n = allocNode();
  n->seq = nextSeq_++;
  n->next = nullptr;
  n->ev.emplace(std::forward<F>(f));
  if (when - cursor_ < kBucketCount) {
    const std::size_t idx = when & (kBucketCount - 1);
    Bucket& b = buckets_[idx];
    if (b.head == nullptr) {
      b.head = b.tail = n;
      occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    } else {
      b.tail->next = n;
      b.tail = n;
    }
    ++bucketCount_;
  } else {
    overflow_.push_back({when, n});
    std::push_heap(overflow_.begin(), overflow_.end(), &later);
  }
  ++size_;
}

inline Cycle EventQueue::bucketMinWhen() const {
  // Scan the occupancy bitmap starting at the cursor's slot, wrapping once.
  // Every bucket event lies in [cursor_, cursor_ + kBucketCount), so the
  // wrap distance from the cursor slot recovers the absolute cycle.
  const std::size_t start = cursor_ & (kBucketCount - 1);
  std::size_t w = start / 64;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; i <= kBitmapWords; ++i) {
    if (word != 0) {
      const std::size_t bit =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      const std::size_t dist = (bit + kBucketCount - start) & (kBucketCount - 1);
      return cursor_ + dist;
    }
    w = (w + 1) % kBitmapWords;
    word = occupied_[w];
  }
  COLIBRI_CHECK_MSG(false, "occupancy bitmap empty with bucketCount_ > 0");
  return kCycleNever;
}

inline Cycle EventQueue::minWhen() const {
  Cycle m = kCycleNever;
  if (bucketCount_ > 0) {
    m = bucketMinWhen();
  }
  if (!overflow_.empty() && overflow_.front().when < m) {
    m = overflow_.front().when;
  }
  return m;
}

template <typename F>
inline std::size_t EventQueue::runBatchIfAtMost(Cycle horizon, F&& before) {
  if (size_ == 0) {
    return 0;
  }
  const Cycle t = bucketCount_ > 0 ? bucketMinWhen() : kCycleNever;
  if (!overflow_.empty() && overflow_.front().when <= t) {
    // The earliest cycle has an overflow entry, which precedes any bucket
    // entry of that cycle (see the header comment): run it alone. Rare —
    // only when the window has just reached a far-future entry's cycle.
    const Cycle when = overflow_.front().when;
    if (when > horizon) {
      return 0;
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), &later);
    Node* n = overflow_.back().node;
    overflow_.pop_back();
    cursor_ = when;  // everything earlier has been dispatched
    --size_;
    // The node is unlinked, so the callable may schedule freely (the pool
    // cannot hand this node out again before the guard frees it).
    const NodeReturn guard{this, n};
    before(when, n->seq);
    n->ev.run();
    return 1;
  }
  if (t > horizon) {
    return 0;
  }
  // Whole-bucket drain. Events scheduled for cycle `t` during the drain
  // append to this bucket's tail and join the loop (FIFO); overflow
  // entries pushed during the drain lie >= t + kBucketCount, so no
  // interleave check is needed per event. schedule() tests only the head
  // for emptiness, so the tail needs no reset while the bucket drains.
  const std::size_t idx = t & (kBucketCount - 1);
  Bucket& b = buckets_[idx];
  std::size_t ran = 0;
  cursor_ = t;
  while (Node* n = b.head) {
    b.head = n->next;
    --bucketCount_;
    --size_;
    const NodeReturn guard{this, n};
    before(t, n->seq);
    n->ev.run();
    ++ran;
  }
  b.tail = nullptr;
  occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
  return ran;
}

}  // namespace colibri::sim
