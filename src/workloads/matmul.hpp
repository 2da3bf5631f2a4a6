// Matrix multiplication worker kernel + the interference experiment
// (paper Section V-A "Interference", Fig. 5).
//
// Worker cores compute C = A × B over matrices interleaved across all SPM
// banks (as MemPool kernels do), so their loads traverse the shared
// interconnect. Poller cores run the concurrent histogram beside them. The
// experiment reports the workers' slowdown relative to an interference-free
// run: LR/SC retry traffic congests the links and banks the workers need,
// while Colibri's sleeping waiters leave them almost untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/backoff.hpp"
#include "workloads/harness.hpp"

namespace colibri::workloads {

struct MatmulParams {
  static constexpr const char* kName = "matmul";  ///< the reported name
  std::uint32_t n = 32;  ///< square matrix dimension
  std::vector<sim::CoreId> workers;
};

struct MatmulResult {
  sim::Cycle duration = 0;  ///< first spawn to last worker completion
  std::uint64_t macs = 0;   ///< multiply-accumulates executed
  bool verified = false;    ///< C spot-checked against a host-side matmul
};

/// Run the matmul alone on a fresh system (the Fig. 5 baseline).
MatmulResult runMatmul(arch::System& sys, const MatmulParams& p);

struct InterferenceParams {
  static constexpr const char* kName = "interference";
  MatmulParams matmul{};
  /// Histogram pollers running beside the workers, with the adapter's
  /// RMW flavor.
  std::uint32_t bins = 1;
  sync::BackoffPolicy pollerBackoff = sync::BackoffPolicy::fixed(128);
  std::vector<sim::CoreId> pollers;
};

struct InterferenceResult {
  MatmulResult matmul;
  std::uint64_t pollerUpdates = 0;
};

/// Run matmul workers and histogram pollers together on a fresh system.
/// Relative throughput (Fig. 5 y-axis) = baseline.duration / result.duration.
InterferenceResult runInterference(arch::System& sys,
                                   const InterferenceParams& p);

}  // namespace colibri::workloads
