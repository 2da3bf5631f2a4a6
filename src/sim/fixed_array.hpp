// FixedArray: a run-time-sized array of objects built in place in one heap
// block. Unlike std::vector it needs no move constructor, so objects that
// others point at (cores, whose awaitables hold references) can live
// contiguously without one allocation each. The size is fixed at
// construction; elements are destroyed in reverse order.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace colibri::sim {

template <typename T>
class FixedArray {
 public:
  /// Build `n` elements, element i as the prvalue `make(i)` (guaranteed
  /// copy elision constructs it directly in its slot).
  template <typename Make>
  FixedArray(std::size_t n, Make&& make)
      : data_(std::allocator<T>().allocate(n)), capacity_(n) {
    try {
      for (; size_ < n; ++size_) {
        ::new (static_cast<void*>(data_ + size_)) T(make(size_));
      }
    } catch (...) {
      release();
      throw;
    }
  }
  ~FixedArray() { release(); }

  FixedArray(const FixedArray&) = delete;
  FixedArray& operator=(const FixedArray&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  void release() {
    while (size_ > 0) {
      std::destroy_at(data_ + --size_);
    }
    std::allocator<T>().deallocate(data_, capacity_);
  }

  T* data_;
  std::size_t capacity_;
  std::size_t size_ = 0;
};

}  // namespace colibri::sim
