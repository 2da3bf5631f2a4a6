// KernelSpec: a declarative description of a synthetic contention kernel.
//
// The paper's evaluation fixes five kernels; a KernelSpec opens the
// scenario space by describing a kernel as data instead of code. A kernel
// is a set of shared *regions* (parameterized address streams), a set of
// *roles* (fractions of the participating cores), and per-role *phases*
// (which region, which op class, how much think time) visited round-robin.
//
//   Region — how target addresses are drawn:
//     kUniform  every word of the region equally likely,
//     kZipfian  rank i with probability ∝ 1/(i+1)^θ (hot-key skew),
//     kHotspot  word 0 with probability hotFraction, the rest uniform,
//     kStrided  each core owns one fixed word; strideBanks controls how
//               the words map to banks (0 = all in one bank, the
//               false-sharing pattern — distinct words serialized on one
//               bank port).
//
//   Phase op classes — resolved to the strongest flavor the system's
//   adapter supports at run time (like the registry's histogramModeFor):
//     kLoad  plain load (readers),
//     kRmw   fetch-add: single AMO on amo, LR/SC loop on the LR/SC
//            adapters, LRwait/SCwait on wait-capable ones,
//     kCas   compare-and-swap loop over the reservation pair (not
//            runnable on the AMO-only adapter),
//     kLock  lock-protected critical section via sync::acquireLock
//            (TAS flavor matched to the adapter),
//     kMcsLock  the kLock critical section under an MCS queue lock whose
//               waiters sleep in Mwait on wait-capable adapters and poll
//               elsewhere (its release CAS needs reservations, like kCas).
//
// Every modifying op adds exactly 1 to one region word, so a run
// self-checks like the histogram: Σ region words == performed increments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace colibri::wgen {

enum class AddrDist : std::uint8_t { kUniform, kZipfian, kHotspot, kStrided };

[[nodiscard]] const char* toString(AddrDist d);

enum class OpClass : std::uint8_t { kLoad, kRmw, kCas, kLock, kMcsLock };

[[nodiscard]] const char* toString(OpClass o);

/// One shared address stream. Regions are declared once per kernel and
/// referenced by index from phases, so two roles can hammer (or read) the
/// same words — a readers/writers kernel is two roles over one region.
struct Region {
  AddrDist dist = AddrDist::kUniform;
  /// Distinct words; 0 = one word per participating core (resolved when
  /// the kernel is instantiated on a System).
  std::uint32_t range = 64;
  /// kZipfian: skew exponent θ; 0 degenerates to uniform.
  double zipfTheta = 0.99;
  /// kHotspot: probability an op hits word 0.
  double hotFraction = 0.9;
  /// kStrided: bank step between successive words; 0 = every word in the
  /// same bank (false sharing).
  std::uint32_t strideBanks = 0;
};

/// One step of a role's loop: `opsPerVisit` ops against one region, each
/// preceded by `thinkCycles` of local compute, with `gapCycles` of idle
/// time after the pass (burst shapes come from opsPerVisit + gapCycles).
struct Phase {
  std::uint32_t region = 0;  ///< index into KernelSpec::regions
  OpClass op = OpClass::kRmw;
  std::uint32_t opsPerVisit = 1;
  std::uint32_t thinkCycles = 4;
  std::uint32_t gapCycles = 0;
  /// kLock, kMcsLock: extra compute inside the critical section.
  std::uint32_t csCycles = 1;
};

/// A fraction of the cores running the same phase loop.
struct Role {
  std::string name;
  /// Relative share of the participating cores (normalized over all
  /// roles); every role with share > 0 receives at least one core.
  double share = 1.0;
  std::vector<Phase> phases;  ///< visited round-robin
};

struct KernelSpec {
  std::string name;
  std::vector<Region> regions;
  std::vector<Role> roles;
};

/// Structural validation (non-empty roles/phases, region indices in
/// range, sane distribution parameters). Throws sim::InvariantViolation.
void validate(const KernelSpec& spec);

/// True iff some phase of some role issues `op`.
[[nodiscard]] bool usesOp(const KernelSpec& spec, OpClass op);

/// True iff the kernel issues reservation-based CAS loops (kCas, or the
/// MCS release), which the AMO-only adapter cannot run (mirrors the
/// amo × prodcons rule).
[[nodiscard]] bool needsReservations(const KernelSpec& spec);

/// Deterministic role assignment: participant i (position in the core
/// list, not CoreId) → role index. Cumulative-share splits, with a fixup
/// pass guaranteeing every positive-share role at least one core when
/// there are enough participants.
[[nodiscard]] std::vector<std::uint32_t> assignRoles(const KernelSpec& spec,
                                                     std::uint32_t participants);

/// Normalized Zipf CDF over `range` ranks with skew `theta` (rank i has
/// weight 1/(i+1)^θ). Sample with zipfRank and a uniform [0,1) draw.
[[nodiscard]] std::vector<double> zipfCdf(std::uint32_t range, double theta);

/// Guide table of `cdf` (Chen & Asau's indexed search): for G, the next
/// power of two >= 4 * cdf.size(), entry k is upper_bound(cdf, k/G).
[[nodiscard]] std::vector<std::uint32_t> zipfGuide(
    const std::vector<double>& cdf);

/// upper_bound(cdf, u) for u in [0, 1), in O(1) expected steps: start at
/// the guide entry of u's 1/G slot and step past every cdf[i] <= u. Exact:
/// G is a power of two, so u*G and k/G carry no rounding; the entry's
/// bound k/G is <= u; and the CDF rises to cdf.back() == 1.0 > u.
[[nodiscard]] inline std::uint32_t zipfRank(
    const std::vector<double>& cdf, const std::vector<std::uint32_t>& guide,
    double u) {
  const auto slot = static_cast<std::size_t>(
      u * static_cast<double>(guide.size()));
  std::uint32_t i = guide[slot];
  while (cdf[i] <= u) {
    ++i;
  }
  return i;
}

}  // namespace colibri::wgen
