#include "arch/system.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <sstream>
#include <utility>

#include "obs/hooks.hpp"
#include "obs/recorder.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"

namespace colibri::arch {

SpmStorage::SpmStorage(std::uint64_t words)
    : words_(nullptr), bytes_(words * sizeof(sim::Word)) {
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  words_ = static_cast<sim::Word*>(p);
}

SpmStorage::~SpmStorage() { munmap(words_, bytes_); }

namespace {

const SystemConfig& validated(const SystemConfig& cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

System::System(const SystemConfig& cfg)
    : cfg_(validated(cfg)),
      net_(cfg_),
      alloc_(cfg_),
      spm_(cfg_.numWords()),
      banks_(std::make_unique<Bank*[]>(cfg_.numBanks())),
      cores_(cfg_.numCores, [this](std::size_t c) {
        return Core(*this, static_cast<CoreId>(c));
      }) {
  if (cfg_.fault.enabled()) {
    fault::FaultConfig fc = cfg_.fault;
    if (fc.seed == 0) {
      // Derive from the system seed so sweep repetitions explore distinct
      // fault schedules unless --fault-seed pins one.
      std::uint64_t s = cfg_.seed ^ 0xFA175EED00000001ULL;
      fc.seed = sim::splitmix64(s);
      if (fc.seed == 0) {
        fc.seed = 1;
      }
    }
    faultPlan_ = std::make_unique<fault::FaultPlan>(fc);
    net_.setFaultPlan(faultPlan_.get());
  }

  if (cfg_.watchdogCycles > 0) {
    fault::Watchdog::Hooks hooks;
    hooks.lastProgress = [this] { return lastProductive(); };
    hooks.allDone = [this] { return allTasksDone(); };
    hooks.blame = [this](sim::Cycle at) { return blameReport(at); };
    watchdog_ =
        std::make_unique<fault::Watchdog>(cfg_.watchdogCycles, std::move(hooks));
    engine_.setProgressProbe(watchdog_.get());
  }

  if (cfg_.recorder != nullptr) {
    attachObservability();
  }
}

void System::attachObservability() {
  obs::Recorder* rec = cfg_.recorder;
  rec->attachSystem();
  obs::Registry& reg = rec->registry();
  obsHooks_ = std::make_unique<obs::SimHooks>();
  obsHooks_->registry = &reg;

  // Hot-path counters; everything else is a gauge probe read only at
  // sample points, so it costs nothing between samples.
  obsHooks_->casRetries = reg.counter("sync.casRetries");
  obsHooks_->rmwRetries = reg.counter("sync.rmwRetries");
  obsHooks_->wgenVisits = reg.counter("wgen.phaseVisits");
  obsHooks_->opLatency = reg.histogram("core.opLatency");

  reg.gauge("engine.pendingEvents", [this] {
    return static_cast<double>(engine_.pendingEvents());
  });
  reg.gauge("engine.executedEvents", [this] {
    return static_cast<double>(engine_.executedEvents());
  });
  reg.gauge("core.issuedOps", [this] {
    std::uint64_t n = 0;
    for (const Core& c : cores_) {
      n += c.stats().issued;
    }
    return static_cast<double>(n);
  });
  reg.gauge("core.sleepCycles", [this] {
    std::uint64_t n = 0;
    for (const Core& c : cores_) {
      n += c.stats().sleepCycles;
    }
    return static_cast<double>(n);
  });
  reg.gauge("core.stallCycles", [this] {
    std::uint64_t n = 0;
    for (const Core& c : cores_) {
      n += c.stats().stallCycles;
    }
    return static_cast<double>(n);
  });
  reg.gauge("bank.requests", [this] {
    std::uint64_t n = 0;
    for (const auto& b : built_) {
      n += b->stats().requests;
    }
    return static_cast<double>(n);
  });
  reg.gauge("bank.backlogMax", [this] {
    sim::Cycle mx = 0;
    for (const auto& b : built_) {
      mx = std::max(mx, b->backlog(engine_.now()));
    }
    return static_cast<double>(mx);
  });
  reg.gauge("bank.backlogMean", [this] {
    double sum = 0;
    for (const auto& b : built_) {
      sum += static_cast<double>(b->backlog(engine_.now()));
    }
    return sum / static_cast<double>(numBanks());
  });
  reg.gauge("net.msgsLocalTile", [this] {
    return static_cast<double>(net_.stats().messagesByDistance[0]);
  });
  reg.gauge("net.msgsSameGroup", [this] {
    return static_cast<double>(net_.stats().messagesByDistance[1]);
  });
  reg.gauge("net.msgsRemoteGroup", [this] {
    return static_cast<double>(net_.stats().messagesByDistance[2]);
  });
  reg.gauge("net.queueingDelay", [this] {
    return static_cast<double>(net_.stats().totalQueueingDelay);
  });
  // Adapter counters summed over the built banks; a bank never built
  // has counted nothing.
  using AdapterCounter = std::uint64_t atomics::AdapterStats::*;
  const auto adapterGauge = [this, &reg](std::string name,
                                         AdapterCounter field) {
    reg.gauge(std::move(name), [this, field] {
      std::uint64_t n = 0;
      for (const auto& b : built_) {
        n += b->adapter().stats().*field;
      }
      return static_cast<double>(n);
    });
  };
  adapterGauge("adapter.lrGrants", &atomics::AdapterStats::lrGrants);
  adapterGauge("adapter.lrFails", &atomics::AdapterStats::lrFails);
  adapterGauge("adapter.scSuccesses", &atomics::AdapterStats::scSuccesses);
  adapterGauge("adapter.scFailures", &atomics::AdapterStats::scFailures);
  adapterGauge("adapter.mwaitWakes", &atomics::AdapterStats::mwaitWakes);
  adapterGauge("adapter.wakeUpRequests",
               &atomics::AdapterStats::wakeUpRequests);
  if (faultPlan_ != nullptr) {
    fault::FaultPlan* fp = faultPlan_.get();
    // The seed names the fault schedule, so a run's counts can be
    // reproduced from its own output.
    reg.add(reg.counter("fault.seed"), fp->seed());
    // Injection decisions are pure hashes of (seed, site, entities,
    // cycle), so the counts are bit-identical across reruns and
    // sweep-thread counts.
    reg.gauge("fault.netDelays", [fp] {
      return static_cast<double>(fp->counters().at(fault::Site::kNetDelay));
    });
    reg.gauge("fault.scFails", [fp] {
      return static_cast<double>(fp->counters().at(fault::Site::kScFail));
    });
    reg.gauge("fault.evictions", [fp] {
      return static_cast<double>(fp->counters().at(fault::Site::kEvict));
    });
    reg.gauge("fault.stalls", [fp] {
      return static_cast<double>(fp->counters().at(fault::Site::kStall));
    });
    reg.gauge("fault.injected", [fp] {
      return static_cast<double>(fp->counters().total());
    });
  }

  if (obs::Tracer* tr = rec->tracer()) {
    tr->bind(cfg_.numCores, cfg_.numBanks());
    obsHooks_->tracer = tr;
    if (faultPlan_ != nullptr) {
      faultPlan_->setTracer(tr);
    }
  }
}

System::~System() {
  if (cfg_.recorder != nullptr) {
    // The gauge probes capture `this`; drop them before anything dies.
    cfg_.recorder->detachSystem();
  }
  // Drop queued events first: they may capture awaiter state living inside
  // coroutine frames that the Core destructors are about to destroy.
  engine_.clear();
}

void System::spawn(CoreId c, sim::Task task) {
  core(c).run(std::move(task));
}

Bank& System::buildBank(BankId b) {
  built_.push_back(
      std::make_unique<Bank>(*this, cfg_, b, spm_.data(), faultPlan_.get()));
  banks_[b] = built_.back().get();
  return *banks_[b];
}

sim::Word System::peek(sim::Addr a) const {
  COLIBRI_CHECK(a < alloc_.map().numWords());
  return spm_.data()[a];
}

void System::poke(sim::Addr a, sim::Word v) {
  COLIBRI_CHECK(a < alloc_.map().numWords());
  spm_.data()[a] = v;
}

void System::run() { engine_.run(); }

void System::runUntil(sim::Cycle horizon) { engine_.runUntil(horizon); }

void System::at(sim::Cycle when, std::function<void()> fn) {
  engine_.scheduleAt(when, std::move(fn));
}

void System::rethrowFailures() const {
  for (const Core& core : cores_) {
    core.rethrowIfFailed();
  }
}

bool System::allTasksDone() const {
  for (const Core& core : cores_) {
    if (core.task_.valid() && !core.task_.done()) {
      return false;
    }
  }
  return true;
}

void System::drain(const char* who) {
  run();
  rethrowFailures();
  COLIBRI_CHECK_MSG(allTasksDone(), who << " failed to drain");
}

void System::injectRequest(CoreId from, const MemRequest& req) {
  Bank* target = &bankUnchecked(alloc_.map().bankOf(req.addr));
  auto arrive = [target, req] { target->receive(req); };

  // Backpressure proxy: a request towards a backlogged bank holds shared
  // network stages longer (finite switch buffers; see config.hpp).
  std::uint32_t hold = 1;
  if (cfg_.linkHoldMax > 0) {
    const sim::Cycle backlog = target->backlog(engine_.now());
    hold += static_cast<std::uint32_t>(
        backlog > cfg_.linkHoldMax ? cfg_.linkHoldMax : backlog);
  }
  engine_.scheduleAt(
      net_.routeRequest(from, target->link(), engine_.now(), hold),
      std::move(arrive));
}

void System::resetStats() {
  for (Core& core : cores_) {
    core.resetStats();
  }
  for (const auto& b : built_) {
    b->resetStats();
  }
  net_.resetStats();
  if (faultPlan_ != nullptr) {
    faultPlan_->resetCounters();
  }
}

sim::Cycle System::lastProductive() const {
  sim::Cycle last = 0;
  for (const Core& c : cores_) {
    last = std::max(last, c.lastProductive_);
  }
  return last;
}

std::string System::blameReport(sim::Cycle now) {
  constexpr std::size_t kMaxBlamedCores = 16;
  std::ostringstream os;
  os << "blame report at cycle " << now << " (adapter "
     << toString(cfg_.adapter) << ", last productive retirement system-wide at "
     << lastProductive() << "):\n";

  std::vector<BankId> blamedBanks;
  std::size_t stuck = 0;
  std::size_t shown = 0;
  for (CoreId c = 0; c < cfg_.numCores; ++c) {
    const Core& core = cores_[c];
    if (!core.task_.valid() || core.task_.done()) {
      continue;
    }
    ++stuck;
    if (shown == kMaxBlamedCores) {
      continue;  // keep counting, stop printing
    }
    ++shown;
    os << "  core " << c << ": ";
    if (core.hasOutstandingOp()) {
      const BankId b = alloc_.map().bankOf(core.pendingAddr_);
      os << "waiting on " << toString(core.pendingKind_) << " to addr "
         << core.pendingAddr_ << " (bank " << b << ") since cycle "
         << core.pendingSince_;
      if (std::find(blamedBanks.begin(), blamedBanks.end(), b) ==
          blamedBanks.end()) {
        blamedBanks.push_back(b);
      }
    } else {
      os << "no outstanding request";
    }
    os << ", last productive retirement at " << core.lastProductive_;
    if (cfg_.adapter == AdapterKind::kColibri) {
      const atomics::Qnode& q = core.queueNode_;
      os << ", qnode ";
      switch (q.state()) {
        case atomics::Qnode::State::kIdle:
          os << "idle";
          break;
        case atomics::Qnode::State::kQueued:
          os << "queued";
          break;
        case atomics::Qnode::State::kOwesWakeup:
          os << "owes-wakeup";
          break;
      }
      if (q.hasSuccessor()) {
        os << " (successor core " << q.successor() << ")";
      }
    }
    os << '\n';
  }
  if (stuck > shown) {
    os << "  ... and " << (stuck - shown) << " more stuck cores\n";
  }
  if (stuck == 0) {
    os << "  (no core has an unfinished task)\n";
  }
  std::sort(blamedBanks.begin(), blamedBanks.end());
  for (const BankId b : blamedBanks) {
    os << "  bank " << b << ": ";
    bank(b).adapter().describeState(os);
    os << '\n';
  }
  return os.str();
}

void System::deliverResponse(CoreId c, const MemResponse& r) {
  cores_[c].complete(r);
}

void System::deliverSuccessorUpdate(CoreId c, CoreId successor,
                                    bool successorIsMwait) {
  cores_[c].onSuccessorUpdate(successor, successorIsMwait);
}

}  // namespace colibri::arch
