#include "fault/fault.hpp"

#include "obs/trace.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"

namespace colibri::fault {

namespace {

// Site/direction salts: distinct constants so the same (core, bank, cycle)
// tuple yields independent decisions at every site.
constexpr std::uint64_t kSaltNetRequest = 0xFA17'0001'9E37'79B9ULL;
constexpr std::uint64_t kSaltNetResponse = 0xFA17'0002'C2B2'AE35ULL;
constexpr std::uint64_t kSaltNetMagnitude = 0xFA17'0003'165F'67B1ULL;
constexpr std::uint64_t kSaltScFail = 0xFA17'0004'27D4'EB2FULL;
constexpr std::uint64_t kSaltEvict = 0xFA17'0005'9E66'95C1ULL;
constexpr std::uint64_t kSaltEvictVictim = 0xFA17'0006'85EB'CA77ULL;
constexpr std::uint64_t kSaltStall = 0xFA17'0007'94D0'49BBULL;
constexpr std::uint64_t kSaltStallMagnitude = 0xFA17'0008'BF58'476DULL;

/// Probability -> 53-bit acceptance threshold. The comparison runs on
/// `hash >> 11` (53 uniform bits), sidestepping double->uint64 overflow at
/// P == 1 (threshold 2^53 accepts every 53-bit value).
std::uint64_t thresholdOf(double p) {
  if (p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return 1ULL << 53;
  }
  return static_cast<std::uint64_t>(p * 9007199254740992.0);  // P * 2^53
}

void checkProbability(const char* name, double p) {
  COLIBRI_CHECK_MSG(p >= 0.0 && p <= 1.0,
                    "fault: " << name << " probability " << p
                              << " outside [0, 1]");
}

// Trace-instant names must point at static storage (obs::Tracer keeps
// string_views).
constexpr const char* kInstantName[kSiteCount] = {
    "fault.net_delay", "fault.sc_fail", "fault.evict", "fault.stall"};

}  // namespace

void FaultConfig::validate() const {
  checkProbability("net-delay", netDelayP);
  checkProbability("sc-fail", scFailP);
  checkProbability("evict", evictP);
  checkProbability("stall", stallP);
  COLIBRI_CHECK_MSG(netDelayP == 0.0 || netDelayMax >= 1,
                    "fault: net-delay needs a max >= 1 cycle");
  COLIBRI_CHECK_MSG(stallP == 0.0 || stallMax >= 1,
                    "fault: stall needs a max >= 1 cycle");
}

const char* toString(Site s) {
  switch (s) {
    case Site::kNetDelay:
      return "net_delay";
    case Site::kScFail:
      return "sc_fail";
    case Site::kEvict:
      return "evict";
    case Site::kStall:
      return "stall";
  }
  return "?";
}

const std::vector<Profile>& profiles() {
  static const std::vector<Profile> kProfiles = [] {
    std::vector<Profile> v;
    {
      Profile p;
      p.name = "net_jitter";
      p.description = "15% of hops take up to 12 extra delivery cycles";
      p.config.netDelayP = 0.15;
      p.config.netDelayMax = 12;
      v.push_back(std::move(p));
    }
    {
      Profile p;
      p.name = "sc_storm";
      p.description = "25% of would-succeed SC/SCwait commits spuriously fail";
      p.config.scFailP = 0.25;
      v.push_back(std::move(p));
    }
    {
      Profile p;
      p.name = "evict_churn";
      p.description = "5% of bank requests drop a held reservation";
      p.config.evictP = 0.05;
      v.push_back(std::move(p));
    }
    {
      Profile p;
      p.name = "chaos";
      p.description = "all four sites at once (net 8%/8, sc 15%, evict 2%, "
                      "stall 10%/6)";
      p.config.netDelayP = 0.08;
      p.config.netDelayMax = 8;
      p.config.scFailP = 0.15;
      p.config.evictP = 0.02;
      p.config.stallP = 0.10;
      p.config.stallMax = 6;
      v.push_back(std::move(p));
    }
    return v;
  }();
  return kProfiles;
}

const Profile* findProfile(const std::string& name) {
  for (const auto& p : profiles()) {
    if (p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

FaultPlan::FaultPlan(const FaultConfig& config) : cfg_(config) {
  cfg_.validate();
  COLIBRI_CHECK_MSG(cfg_.seed != 0, "fault: plan seed must be resolved");
  netThreshold_ = thresholdOf(cfg_.netDelayP);
  scThreshold_ = thresholdOf(cfg_.scFailP);
  evictThreshold_ = thresholdOf(cfg_.evictP);
  stallThreshold_ = thresholdOf(cfg_.stallP);
}

std::uint64_t FaultPlan::mix(std::uint64_t salt, std::uint64_t a,
                             std::uint64_t b, sim::Cycle at) const {
  std::uint64_t s = cfg_.seed ^ salt;
  s ^= 0x9e3779b97f4a7c15ULL * (a + 1);
  s ^= 0xbf58476d1ce4e5b9ULL * (b + 2);
  s ^= 0x94d049bb133111ebULL * (at + 3);
  return sim::splitmix64(s);
}

bool FaultPlan::decide(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
                       sim::Cycle at, std::uint64_t threshold) const {
  if (threshold == 0) {
    return false;
  }
  return (mix(salt, a, b, at) >> 11) < threshold;
}

void FaultPlan::count(Site s) {
  counters_.injected[static_cast<std::size_t>(s)]++;
}

sim::Cycle FaultPlan::netDelay(sim::CoreId core, sim::BankId bank,
                               bool response, sim::Cycle at) {
  const std::uint64_t salt = response ? kSaltNetResponse : kSaltNetRequest;
  if (!decide(salt, core, bank, at, netThreshold_)) {
    return 0;
  }
  count(Site::kNetDelay);
  if (tracer_ != nullptr) {
    // Attribute the instant to the endpoint that made the decision
    // (request hops route on the core side, response hops on the bank
    // side).
    if (response) {
      tracer_->onFaultBank(bank, kInstantName[0], at);
    } else {
      tracer_->onFaultCore(core, kInstantName[0], at);
    }
  }
  const std::uint64_t h = mix(kSaltNetMagnitude, core, bank, at);
  return 1 + static_cast<sim::Cycle>(h % cfg_.netDelayMax);
}

bool FaultPlan::scFail(sim::BankId bank, sim::CoreId core, sim::Addr a,
                       sim::Cycle at) {
  if (!decide(kSaltScFail, (static_cast<std::uint64_t>(bank) << 32) | core, a,
              at, scThreshold_)) {
    return false;
  }
  count(Site::kScFail);
  if (tracer_ != nullptr) {
    tracer_->onFaultBank(bank, kInstantName[1], at);
  }
  return true;
}

bool FaultPlan::evict(sim::BankId bank, sim::CoreId core, sim::Cycle at) {
  if (!decide(kSaltEvict, bank, core, at, evictThreshold_)) {
    return false;
  }
  count(Site::kEvict);
  if (tracer_ != nullptr) {
    tracer_->onFaultBank(bank, kInstantName[2], at);
  }
  return true;
}

std::uint32_t FaultPlan::evictVictim(sim::BankId bank, sim::Cycle at,
                                     std::uint32_t bound) const {
  if (bound <= 1) {
    return 0;
  }
  return static_cast<std::uint32_t>(mix(kSaltEvictVictim, bank, 0, at) %
                                    bound);
}

sim::Cycle FaultPlan::stall(sim::BankId bank, sim::CoreId core,
                            sim::Cycle at) {
  if (!decide(kSaltStall, bank, core, at, stallThreshold_)) {
    return 0;
  }
  count(Site::kStall);
  if (tracer_ != nullptr) {
    tracer_->onFaultBank(bank, kInstantName[3], at);
  }
  const std::uint64_t h = mix(kSaltStallMagnitude, bank, core, at);
  return 1 + static_cast<sim::Cycle>(h % cfg_.stallMax);
}

}  // namespace colibri::fault
