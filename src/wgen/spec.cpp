#include "wgen/spec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/check.hpp"

namespace colibri::wgen {

const char* toString(AddrDist d) {
  switch (d) {
    case AddrDist::kUniform:
      return "uniform";
    case AddrDist::kZipfian:
      return "zipfian";
    case AddrDist::kHotspot:
      return "hotspot";
    case AddrDist::kStrided:
      return "strided";
  }
  return "?";
}

const char* toString(OpClass o) {
  switch (o) {
    case OpClass::kLoad:
      return "load";
    case OpClass::kRmw:
      return "rmw";
    case OpClass::kCas:
      return "cas";
    case OpClass::kLock:
      return "lock";
    case OpClass::kMcsLock:
      return "mcs-lock";
  }
  return "?";
}

void validate(const KernelSpec& spec) {
  COLIBRI_CHECK_MSG(!spec.name.empty(), "kernel needs a name");
  COLIBRI_CHECK_MSG(!spec.regions.empty(),
                    "kernel '" << spec.name << "' declares no regions");
  COLIBRI_CHECK_MSG(!spec.roles.empty(),
                    "kernel '" << spec.name << "' declares no roles");
  for (const auto& r : spec.regions) {
    COLIBRI_CHECK_MSG(r.zipfTheta >= 0.0, "zipfTheta must be >= 0");
    COLIBRI_CHECK_MSG(r.hotFraction >= 0.0 && r.hotFraction <= 1.0,
                      "hotFraction must be in [0, 1]");
  }
  double totalShare = 0.0;
  for (const auto& role : spec.roles) {
    COLIBRI_CHECK_MSG(role.share >= 0.0,
                      "role '" << role.name << "' has a negative share");
    COLIBRI_CHECK_MSG(!role.phases.empty(),
                      "role '" << role.name << "' has no phases");
    totalShare += role.share;
    for (const auto& ph : role.phases) {
      COLIBRI_CHECK_MSG(ph.region < spec.regions.size(),
                        "phase of role '" << role.name
                                          << "' references region "
                                          << ph.region << " of "
                                          << spec.regions.size());
      COLIBRI_CHECK_MSG(ph.opsPerVisit >= 1, "opsPerVisit must be >= 1");
    }
  }
  COLIBRI_CHECK_MSG(totalShare > 0.0,
                    "kernel '" << spec.name << "' has zero total share");
}

bool usesOp(const KernelSpec& spec, OpClass op) {
  for (const auto& role : spec.roles) {
    for (const auto& ph : role.phases) {
      if (ph.op == op) {
        return true;
      }
    }
  }
  return false;
}

bool needsReservations(const KernelSpec& spec) {
  return usesOp(spec, OpClass::kCas) || usesOp(spec, OpClass::kMcsLock);
}

std::vector<std::uint32_t> assignRoles(const KernelSpec& spec,
                                       std::uint32_t participants) {
  const std::size_t n = spec.roles.size();
  double total = 0.0;
  for (const auto& role : spec.roles) {
    total += role.share;
  }
  // Cumulative-share boundaries; floor keeps the split deterministic.
  std::vector<std::uint32_t> counts(n, 0);
  double cum = 0.0;
  std::uint32_t prev = 0;
  for (std::size_t r = 0; r < n; ++r) {
    cum += spec.roles[r].share;
    const auto edge = static_cast<std::uint32_t>(
        std::floor(static_cast<double>(participants) * (cum / total)));
    counts[r] = edge - prev;
    prev = edge;
  }
  counts[n - 1] += participants - prev;  // rounding remainder to the last role
  // Fixup: a positive-share role squeezed to zero takes one core from the
  // currently largest role (first-largest wins — deterministic).
  for (std::size_t r = 0; r < n; ++r) {
    if (spec.roles[r].share > 0.0 && counts[r] == 0) {
      const auto big = static_cast<std::size_t>(
          std::max_element(counts.begin(), counts.end()) - counts.begin());
      if (counts[big] > 1) {
        --counts[big];
        ++counts[r];
      }
    }
  }
  std::vector<std::uint32_t> out;
  out.reserve(participants);
  for (std::size_t r = 0; r < n; ++r) {
    out.insert(out.end(), counts[r], static_cast<std::uint32_t>(r));
  }
  return out;
}

std::vector<double> zipfCdf(std::uint32_t range, double theta) {
  COLIBRI_CHECK_MSG(range >= 1, "zipf range must be >= 1");
  std::vector<double> cdf(range);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < range; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = sum;
  }
  for (auto& c : cdf) {
    c /= sum;
  }
  cdf.back() = 1.0;  // guard against rounding shortfall at the tail
  return cdf;
}

std::vector<std::uint32_t> zipfGuide(const std::vector<double>& cdf) {
  const std::size_t slots = std::bit_ceil(4 * cdf.size());
  std::vector<std::uint32_t> guide(slots);
  std::size_t i = 0;
  for (std::size_t k = 0; k < slots; ++k) {
    const double bound =
        static_cast<double>(k) / static_cast<double>(slots);
    while (cdf[i] <= bound) {
      ++i;
    }
    guide[k] = static_cast<std::uint32_t>(i);
  }
  return guide;
}

}  // namespace colibri::wgen
