// Simulator micro-benchmarks (google-benchmark): raw event throughput,
// resource arbitration and end-to-end simulated-op cost. These measure the
// *simulator*, not the modeled hardware — they bound how large a sweep the
// figure benches can afford.
#include <benchmark/benchmark.h>

#include <functional>

#include "arch/system.hpp"
#include "exp/run.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sync/atomic.hpp"
#include "wgen/presets.hpp"

namespace {

using namespace colibri;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      e.scheduleAt(i % 97, [&sum] { ++sum; });
    }
    e.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(65536);

struct CascadeStep {
  // Self-scheduling functor: the dependent-event (protocol) pattern, in
  // the allocation-free shape the simulator's own hot path uses.
  sim::Engine* e;
  std::uint64_t* depth;
  void operator()() const {
    if (++*depth % 4096 != 0) {
      e->scheduleAfter(1, CascadeStep{e, depth});
    }
  }
};
static_assert(sim::InlineEvent::fitsInline<CascadeStep>);

void BM_EngineCascade(benchmark::State& state) {
  // Each event schedules the next: the dependent-event (protocol) pattern.
  for (auto _ : state) {
    sim::Engine e;
    std::uint64_t depth = 0;
    e.scheduleAt(0, CascadeStep{&e, &depth});
    e.run();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_EngineCascade);

void BM_EngineMixedHorizon(benchmark::State& state) {
  // Mixed scheduling horizons: most events land in the calendar's bucket
  // window (near future), a slice lands tens of thousands of cycles out and
  // exercises the overflow heap, including the bucket-vs-overflow
  // tie-breaks as the window sweeps over the far events.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    sim::Xoshiro256 rng(0xBEEF);
    std::uint64_t sum = 0;
    auto ev = [&sum] { ++sum; };
    for (std::size_t i = 0; i < n; ++i) {
      const sim::Cycle when = (i % 8 == 0) ? 20000 + rng.below(50000)
                                           : rng.below(900);
      e.scheduleAt(when, ev);
    }
    e.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineMixedHorizon)->Arg(65536);

void BM_InlineEventConstruct(benchmark::State& state) {
  // Construction+invoke+destroy cost of the event representation for a
  // capture that overflows std::function's SSO (3 pointers) but fits
  // InlineEvent's 40-byte buffer.
  std::uint64_t a = 0, b = 0, c = 0;
  for (auto _ : state) {
    sim::InlineEvent ev([&a, &b, &c] { ++a; });
    ev.run();
    benchmark::DoNotOptimize(ev);
  }
  benchmark::DoNotOptimize(a + b + c);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InlineEventConstruct);

void BM_StdFunctionConstruct(benchmark::State& state) {
  // Baseline for BM_InlineEventConstruct: same capture via std::function
  // (heap-allocates — what every scheduled event used to pay).
  std::uint64_t a = 0, b = 0, c = 0;
  for (auto _ : state) {
    std::function<void()> ev([&a, &b, &c] { ++a; });
    ev();
    benchmark::DoNotOptimize(ev);
  }
  benchmark::DoNotOptimize(a + b + c);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StdFunctionConstruct);

void BM_ResourceAcquire(benchmark::State& state) {
  sim::ThroughputResource r(4);
  sim::Cycle at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.acquire(at));
    ++at;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResourceAcquire);

void BM_Xoshiro(benchmark::State& state) {
  sim::Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1024));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Xoshiro);

sim::Task incrementLoop(arch::System& sys, arch::Core& core, sim::Addr a,
                        int iters) {
  auto rng = sim::Xoshiro256::forStream(sys.config().seed, core.id());
  sync::Backoff bo(sync::BackoffPolicy::fixed(32), rng);
  for (int i = 0; i < iters; ++i) {
    (void)co_await sync::fetchAdd(core, sync::RmwFlavor::kLrscWait, a, 1, bo);
  }
}

void BM_EndToEndAtomicOp(benchmark::State& state) {
  // Wall-clock cost per simulated LRwait/SCwait increment (16 cores,
  // Colibri, full network + bank path).
  constexpr int kIters = 200;
  for (auto _ : state) {
    auto cfg = arch::SystemConfig::smallTest();
    cfg.adapter = arch::AdapterKind::kColibri;
    arch::System sys(cfg);
    const auto a = sys.allocator().allocGlobal(1);
    for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
      sys.spawn(c, incrementLoop(sys, sys.core(c), a, kIters));
    }
    sys.run();
    if (sys.peek(a) != cfg.numCores * kIters) {
      state.SkipWithError("lost updates");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          kIters);
}
BENCHMARK(BM_EndToEndAtomicOp)->Unit(benchmark::kMillisecond);

void BM_EndToEndObsRecorder(benchmark::State& state) {
  // Observability overhead contract: the same 256-core Zipf-hot run with
  // no recorder (arg 0) and with the full sink set attached — interval
  // sampling plus the span tracer (arg 1). The ratio between the two rows
  // is the simulator-side cost of observing; items/s counts completed
  // window ops, which are identical in both rows.
  const bool observed = state.range(0) != 0;
  const auto* preset = wgen::findPreset("zipf_hot");
  if (preset == nullptr) {
    state.SkipWithError("zipf_hot preset missing");
    return;
  }
  exp::RunSpec spec;
  spec.label = observed ? "zipf_hot_obs" : "zipf_hot_base";
  spec.config = arch::SystemConfig{};  // paper geometry: 256 cores
  spec.config.adapter = arch::AdapterKind::kColibri;
  wgen::WgenParams params;
  params.kernel = preset->spec;
  spec.params = params;
  spec.window = workloads::MeasureWindow{500, 2000};
  std::uint64_t ops = 0;
  for (auto _ : state) {
    obs::Recorder::Config rc;
    rc.sampleInterval = 250;
    rc.traceEnabled = true;
    obs::Recorder recorder(rc);  // one Recorder records exactly one run
    spec.config.recorder = observed ? &recorder : nullptr;
    const auto result = exp::runOne(spec);
    ops = result.rate.opsInWindow;
    benchmark::DoNotOptimize(ops);
  }
  if (ops == 0) {
    state.SkipWithError("no ops completed in the window");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EndToEndObsRecorder)
    ->ArgName("observed")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
