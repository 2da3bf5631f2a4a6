// Host-time PC sampler for the e2e harness.
//
// A POSIX timer on CLOCK_MONOTONIC delivers SIGPROF to the calling thread
// every millisecond; the handler stores the interrupted program counter in
// a buffer allocated up front, so sampling allocates nothing and takes no
// lock. ITIMER_PROF would sample CPU time directly, but the kernel checks
// CPU-time timers only on its scheduler tick (250 Hz on common configs), so
// a 1 kHz profile needs the high-resolution monotonic clock. The harness is
// single-threaded and CPU-bound, which makes wall and CPU time agree.
//
// Symbolisation happens after the run, outside the process (run.py maps
// the PCs through `nm -C` of the harness binary); mappings() captures the
// /proc/self/maps entries it needs to tell the executable's PCs from the
// shared libraries'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <span>
#include <string>
#include <vector>

namespace colibri::bench {

class PcSampler {
 public:
  /// Room for `capacity` samples; later ones are not kept.
  explicit PcSampler(std::size_t capacity);
  ~PcSampler();

  PcSampler(const PcSampler&) = delete;
  PcSampler& operator=(const PcSampler&) = delete;

  void start();
  void stop();

  /// Samples taken between start() and stop().
  [[nodiscard]] std::span<const std::uintptr_t> pcs() const;

 private:
  std::vector<std::uintptr_t> buf_;
  timer_t timer_{};
  bool running_ = false;
  std::size_t taken_ = 0;
};

/// One line of /proc/self/maps.
struct Mapping {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::uintptr_t offset = 0;
  std::string path;  ///< empty for anonymous mappings
};

[[nodiscard]] std::vector<Mapping> selfMappings();

/// The running executable's path (readlink of /proc/self/exe).
[[nodiscard]] std::string selfExePath();

}  // namespace colibri::bench
