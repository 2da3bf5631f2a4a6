// Invariant checking for the simulator.
//
// COLIBRI_CHECK is always on (also in release builds): the benchmarks are
// only meaningful if the protocol invariants hold, and the cost of the
// checks is negligible next to event scheduling.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace colibri::sim {

/// Thrown when a modeled hardware invariant is violated. Tests assert on
/// this; benches treat it as fatal.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

namespace detail {
/// Throws the InvariantViolation for a failed check. Out of line and cold,
/// so a check costs its caller only the test and a never-taken branch.
[[noreturn, gnu::noinline, gnu::cold]] inline void checkFailed(
    const char* expr, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) {
    os << " — " << msg;
  }
  throw InvariantViolation(os.str());
}
}  // namespace detail

}  // namespace colibri::sim

#define COLIBRI_CHECK(expr)                                              \
  do {                                                                   \
    if (!(expr)) [[unlikely]] {                                          \
      ::colibri::sim::detail::checkFailed(#expr, __FILE__, __LINE__, ""); \
    }                                                                    \
  } while (false)

// The message is formatted inside an out-of-line cold lambda, so the
// ostringstream stays out of the caller: a checked function stays small
// enough to inline.
#define COLIBRI_CHECK_MSG(expr, msg)                                     \
  do {                                                                   \
    if (!(expr)) [[unlikely]] {                                          \
      [&]() __attribute__((noinline, cold, noreturn)) {                  \
        std::ostringstream os_;                                          \
        os_ << msg;                                                      \
        ::colibri::sim::detail::checkFailed(#expr, __FILE__, __LINE__,   \
                                            os_.str());                  \
      }();                                                               \
    }                                                                    \
  } while (false)
