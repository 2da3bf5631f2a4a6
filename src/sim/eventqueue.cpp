// Cold paths of the calendar queue: pool growth and bulk teardown. The
// per-event schedule/dispatch fast path lives in the header.
#include "sim/eventqueue.hpp"

namespace colibri::sim {

void EventQueue::refillPool() {
  auto chunk = std::make_unique<Node[]>(kNodesPerChunk);
  for (std::size_t i = kNodesPerChunk; i-- > 0;) {
    chunk[i].next = freeList_;
    freeList_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
}

void EventQueue::clear() noexcept {
  for (std::size_t w = 0; w < kBitmapWords; ++w) {
    std::uint64_t word = occupied_[w];
    while (word != 0) {
      const std::size_t idx =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      Bucket& b = buckets_[idx];
      Node* n = b.head;
      while (n != nullptr) {
        Node* next = n->next;
        n->ev.reset();
        freeNode(n);
        n = next;
      }
      b.head = b.tail = nullptr;
    }
    occupied_[w] = 0;
  }
  for (const Far& f : overflow_) {
    f.node->ev.reset();
    freeNode(f.node);
  }
  overflow_.clear();
  size_ = 0;
  bucketCount_ = 0;
}

}  // namespace colibri::sim
