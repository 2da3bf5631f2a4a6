// Coroutine task type for simulated cores.
//
// Each simulated core runs one `Task`: a C++20 coroutine that awaits
// simulated memory operations and delays. The coroutine starts suspended;
// the owner kicks it off via start(). When the task co_awaits an operation,
// the frame stays suspended until the simulation delivers the response and
// resumes the handle — a suspended task costs zero simulation events, which
// is exactly how the paper's sleeping cores behave.
//
// Ownership: Task is move-only and destroys the coroutine frame in its
// destructor. The owner must guarantee that no event still referencing the
// frame can fire after destruction (System::shutdown clears the engine
// queue first).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/check.hpp"

namespace colibri::sim {

class Task {
 public:
  struct promise_type {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Suspend at the end so the frame (and the promise's `done` flag)
    // outlives completion; the owning Task destroys the frame.
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }

    std::exception_ptr exception;
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Begin execution (runs until the first suspension point).
  void start() {
    COLIBRI_CHECK(valid() && !handle_.done());
    handle_.resume();
    rethrowIfFailed();
  }

  /// Rethrow an exception that escaped the coroutine body, if any.
  void rethrowIfFailed() const {
    if (handle_ && handle_.done() && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace colibri::sim
