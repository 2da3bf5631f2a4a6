// Co<T>: an awaitable sub-coroutine for composing simulated kernels.
//
// Workload coroutines (sim::Task) call synchronization primitives that are
// themselves multi-step simulated operations (a lock acquire is a loop of
// memory ops). Co<T> lets those be written as coroutines and awaited:
//
//   sim::Co<void> acquire(Core& c, Addr lock) { ... co_return; }
//   Task worker(...) { co_await acquire(core, lock); ... }
//
// (The RMW primitives, sync::fetchAdd and compareAndSwap, need no frame of
// their own: they chain core callbacks instead.)
//
// The child starts lazily when awaited and resumes its parent by symmetric
// transfer at completion. Exceptions propagate to the awaiting coroutine.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/check.hpp"

namespace colibri::sim {

template <typename T>
class Co;

namespace detail {

template <typename T>
struct CoPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase<T> {
    T value{};
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Co(Co&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // start the child
  }
  T await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
    return std::move(handle_.promise().value);
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase<void> {
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  Co(Co&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace colibri::sim
