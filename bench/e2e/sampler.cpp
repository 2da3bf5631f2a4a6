#include "sampler.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

namespace colibri::bench {

namespace {

// The handler's view of the active sampler. Only one sampler runs at a
// time (start() checks), and the process has a single simulation thread.
std::atomic<std::uintptr_t*> gBuf{nullptr};
std::atomic<std::size_t> gCap{0};
std::atomic<std::size_t> gCount{0};
std::atomic<bool> gActive{false};

void onProf(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "PcSampler: unsupported architecture"
#endif
  const std::size_t i = gCount.fetch_add(1, std::memory_order_relaxed);
  if (i < gCap.load(std::memory_order_relaxed)) {
    gBuf.load(std::memory_order_relaxed)[i] = pc;
  }
}

}  // namespace

PcSampler::PcSampler(std::size_t capacity) : buf_(capacity) {}

PcSampler::~PcSampler() { stop(); }

void PcSampler::start() {
  if (gActive.exchange(true)) {
    throw std::logic_error("PcSampler: another sampler is running");
  }
  gBuf = buf_.data();
  gCap = buf_.size();
  gCount.store(0);

  struct sigaction sa {};
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    gActive = false;
    throw std::runtime_error("PcSampler: sigaction failed");
  }
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    gActive = false;
    throw std::runtime_error("PcSampler: timer_create failed");
  }
  itimerspec period{};
  period.it_interval.tv_nsec = 1'000'000;
  period.it_value.tv_nsec = 1'000'000;
  timer_settime(timer_, 0, &period, nullptr);
  running_ = true;
}

void PcSampler::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  timer_delete(timer_);
  // A signal already queued may still arrive. The handler runs on this
  // thread, so it completes between two of these statements: count first,
  // then close the buffer; a late sample lands past taken_ or nowhere.
  taken_ = std::min(gCount.load(), buf_.size());
  gCap = 0;
  gActive = false;
}

std::span<const std::uintptr_t> PcSampler::pcs() const {
  return {buf_.data(), taken_};
}

std::vector<Mapping> selfMappings() {
  std::vector<Mapping> out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // lo-hi perms offset dev inode [path]
    std::istringstream is(line);
    std::string range, perms, offset, dev, inode, path;
    is >> range >> perms >> offset >> dev >> inode;
    std::getline(is >> std::ws, path);
    const auto dash = range.find('-');
    if (dash == std::string::npos) {
      continue;
    }
    Mapping m;
    m.lo = std::stoull(range.substr(0, dash), nullptr, 16);
    m.hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    m.offset = std::stoull(offset, nullptr, 16);
    m.path = path;
    out.push_back(std::move(m));
  }
  return out;
}

std::string selfExePath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

}  // namespace colibri::bench
