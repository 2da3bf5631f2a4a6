// Kernel runner: compile a KernelSpec into coroutine workers and run it
// on the shared workloads:: measurement harness (warmup window, counter
// snapshot, drain, self-check).
//
// Op flavors are resolved from the system's adapter at run time — kRmw is
// a single AMO on the AMO-only adapter, an LR/SC loop on the LR/SC
// adapters, and LRwait/SCwait on wait-capable ones — so the same spec is
// runnable across the whole adapter axis (CAS phases excepted; they need
// reservations).
//
// Determinism: participant i derives its RNG stream from (seed, CoreId)
// exactly like the fixed workloads, regions are allocated in declaration
// order, and latencies go into one order-independent histogram — a
// (config, seed, spec) triple reproduces the WgenResult bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sync/backoff.hpp"
#include "wgen/spec.hpp"
#include "workloads/harness.hpp"

namespace colibri::wgen {

struct WgenParams {
  KernelSpec kernel;
  sync::BackoffPolicy backoff = sync::BackoffPolicy::fixed(128);
  workloads::MeasureWindow window{};
  /// Participating cores; empty = all cores of the system. Roles are
  /// assigned over positions in this list (assignRoles).
  std::vector<sim::CoreId> cores;
};

/// A Region instantiated on a System: the address table (index →
/// simulated word), the parallel lock words (lock phases only; an MCS
/// lock's word is its queue tail), and the sampled CDF with its guide
/// table (kZipfian only). Exposed for tests.
struct ResolvedRegion {
  std::vector<sim::Addr> addrs;
  std::vector<sim::Addr> locks;
  std::vector<double> cdf;
  std::vector<std::uint32_t> guide;
};

/// Allocate and zero-initialize every region of `spec` on `sys`.
/// `participants` resolves range-0 (one word per core) regions.
[[nodiscard]] std::vector<ResolvedRegion> resolveRegions(
    arch::System& sys, const KernelSpec& spec, std::uint32_t participants);

/// The allocation half of resolveRegions: the address and lock-word
/// tables, taken from `alloc` in the same order, with no CDF and nothing
/// written. On a scratch Allocator it is a dry run that tells whether a
/// kernel fits the SPM. Throws sim::InvariantViolation when it does not,
/// or when `spec` fails validate.
[[nodiscard]] std::vector<ResolvedRegion> allocateRegions(
    arch::Allocator& alloc, const KernelSpec& spec,
    std::uint32_t participants);

struct WgenResult {
  workloads::RateResult rate;
  /// Latency (cycles, think time excluded) of every op that completed
  /// inside the measurement window; count == rate.opsInWindow. Exact: built
  /// from one CycleHistogram per run, so memory grows with the number of
  /// distinct latencies, not with ops or cores.
  sim::Summary opLatency;
  std::uint64_t totalOps = 0;         ///< performed ops incl. outside window
  std::uint64_t totalIncrements = 0;  ///< modifying ops (verification basis)
  bool sumVerified = false;  ///< Σ region words == totalIncrements, locks free
};

/// Run the kernel on a fresh system. The adapter must support every op
/// class the spec uses (checked).
WgenResult runKernel(arch::System& sys, const WgenParams& p);

}  // namespace colibri::wgen
