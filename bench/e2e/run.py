#!/usr/bin/env python3
"""End-to-end benchmark of colibri-sim: simulated ops per host-second on
four workloads, with a sampled host-time split by layer.

Builds src/ in Release into build-bench/ (bench/e2e/CMakeLists.txt), then
runs each workload in its own single-threaded e2e_harness process: one
untimed warm-up rep, then timed exp::runOne reps of one seed until --seconds
have passed (at least 3), with a round of 11 timed System constructions
before the warm-up and after every rep. Every rep must
reproduce the warm-up's simulated digest; a rep that does not, throws or
fails its self-check counts as failed. A 1/100-window run of the
equivalent colibri-sim command must report the harness's window ops and
ops/cycle exactly.

  python3 bench/e2e/run.py [--seed S] [--traced] [--out FILE]
      all workloads: metrics with median, quartiles and n; results JSON
      (for compare.py) to FILE, default build-bench/e2e-results.json
  python3 bench/e2e/run.py --workload W --seed S --seconds N --trace 0|1
      one workload; the last stdout line is one JSON object with the
      end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
  python3 bench/e2e/run.py --self-test
      1/100 windows, traced, plus a planted digest mismatch; under 30 s
      once built

Metric names, units and bounds come from BENCHMARK.json at the repo root.
"""

import argparse
import bisect
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BUILD = ROOT / "build-bench"
HARNESS = BUILD / "e2e_harness"
CLI = BUILD / "colibri-sim"
DEFAULT_SEED = 0xC011B21
HARNESS_TIMEOUT_S = 160

# colibri-sim flags of each workload (the seed is appended per run).
# Windows are sized for about 2-3 s per rep on a 4-CPU Xeon host.
WORKLOADS = {
    "hist16_lrsc": ["--adapter", "lrsc_single", "--workload", "histogram",
                    "--bins", "16", "--measure", "2000000"],
    "hist16_colibri": ["--adapter", "colibri", "--workload", "histogram",
                       "--bins", "16", "--measure", "3000000"],
    "rw_colibri": ["--adapter", "colibri", "--workload", "readers_writers",
                   "--measure", "400000"],
    "zipf4k_colibri": ["--adapter", "colibri", "--workload", "zipf_hot",
                       "--cores", "4096", "--tiles-per-group", "64",
                       "--measure", "4000000"],
}

# Simulated results: identical for one seed on any host, so compare.py
# requires them to match exactly.
DETERMINISTIC = {"model_ops_per_cycle", "model_pj_per_op", "model_jain"}

# Host-time layers, matched against the first colibri:: name in a sampled
# symbol; the first rule that matches wins. Inlined code counts toward the
# function it was inlined into. The rest of colibri::sim (statistics, RNG,
# port resources) and exp/model/report count as "other".
LAYER_RULES = [
    ("sim.framepool", ("colibri::sim::framepool::",)),
    ("sim.parallel", ("colibri::sim::ParallelDispatch",)),
    ("sim.engine", ("colibri::sim::Engine", "colibri::sim::EventQueue",
                    "colibri::sim::InlineEvent", "colibri::sim::Co",
                    "colibri::sim::Task", "colibri::sim::detail::")),
    ("core", ("colibri::arch::Core",)),
    ("arch.network", ("colibri::arch::Network", "colibri::arch::Topology")),
    ("arch.bank", ("colibri::arch::Bank",)),
    ("arch.system", ("colibri::arch::",)),
    ("atomics", ("colibri::atomics::",)),
    ("sync", ("colibri::sync::",)),
    ("workloads", ("colibri::workloads::", "colibri::wgen::")),
    ("obs", ("colibri::obs::",)),
    ("fault", ("colibri::fault::",)),
]
LAYERS = [name for name, _ in LAYER_RULES] + ["libc", "other"]
RUNTIME_LIBS = ("libc.", "libc-", "libstdc++", "libm.", "libgcc_s", "ld-linux")


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


# --- build ---------------------------------------------------------------

def ensure_built():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no colibri sources at {ROOT / 'src'}", 2)
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD),
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=log, stderr=log, timeout=850)


def host_info():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"([A-Z_]+):[A-Z]+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": version[0] if version else compiler,
            "flags": cache.get("CMAKE_CXX_FLAGS_RELEASE", "")}


# --- running -------------------------------------------------------------

def workload_args(name, seed, scale=1):
    args = list(WORKLOADS[name])
    i = args.index("--measure")
    args[i + 1] = str(max(1, int(args[i + 1]) // scale))
    return args + ["--seed", str(seed)]


def run_harness(args, extra):
    cmd = [str(HARNESS), *extra, "--", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"harness exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def cli_cross_check(name, seed):
    """A 1/100-window run of the workload through the harness and through
    the colibri-sim CLI must agree on window ops and ops/cycle."""
    args = workload_args(name, seed, scale=100)
    h = run_harness(args, ["--seconds", "0", "--min-reps", "1",
                           "--setup-reps", "1"])
    proc = subprocess.run([str(CLI), *args, "--json", "--threads", "1"],
                          capture_output=True, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0 or "model" not in h:
        return False
    rep = json.loads(proc.stdout)["runs"][0]["reps"][0]
    return (rep["opsInWindow"] == h["model"]["ops_in_window"]
            and rep["opsPerCycle"] == h["model"]["ops_per_cycle"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def end_to_end(h):
    m = h["model"]
    return {
        "sim_ops_per_s": [m["ops_in_window"] / s for s in h["rep_s"]],
        "setup_s": h["setup_s"],
        "peak_rss_mib": [h["peak_rss_kib"] / 1024.0],
        "model_ops_per_cycle": [m["ops_per_cycle"]],
        "model_pj_per_op": [m["pj_per_op"]],
        "model_jain": [m["jain"]],
    }


# --- per-layer -----------------------------------------------------------

def ratio(a, b):
    return a / b if b else 0.0


def load_symbols(exe):
    out = subprocess.run(["nm", "-C", "--defined-only", "-n", "-S", exe],
                         capture_output=True, text=True, check=True).stdout
    addrs, syms = [], []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwWi":
            addrs.append(int(parts[0], 16))
            syms.append((int(parts[1], 16), parts[3]))
    with open(exe, "rb") as f:
        is_pie = int.from_bytes(f.read(18)[16:18], "little") == 3  # ET_DYN
    return addrs, syms, is_pie


def qualified_name(symbol):
    """The function's qualified name: no return type, no parameters."""
    s = symbol.replace("(anonymous namespace)", "anon")
    depth = 0
    for i, ch in enumerate(s):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            s = s[:i]
            break
    depth, start = 0, 0
    for i, ch in enumerate(s):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == " " and depth == 0:
            start = i + 1
    return s[start:]


def layer_of(symbol):
    name = qualified_name(symbol)
    at = name.find("colibri::")
    if at < 0:
        return "libc" if name.startswith(("std::", "__gnu_cxx::", "operator"))\
            else "other"
    name = name[at:]
    for layer, prefixes in LAYER_RULES:
        if name.startswith(prefixes):
            return layer
    return "other"


def host_shares(samples):
    addrs, syms, is_pie = load_symbols(samples["exe"])
    base = samples["exe_base"] if is_pie else 0
    counts = dict.fromkeys(LAYERS, 0)
    for pc, n in samples["exe_pcs"]:
        i = bisect.bisect_right(addrs, pc - base) - 1
        layer = "other"
        if i >= 0:
            size, sym = syms[i]
            if size == 0 or pc - base < addrs[i] + size:
                layer = layer_of(sym)
        counts[layer] += n
    for lib, n in samples["elsewhere"].items():
        counts["libc" if lib.startswith(RUNTIME_LIBS) else "other"] += n
    return counts


def read_metrics_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(","))))
            for line in lines[1:]]


def span_means(path):
    events = json.loads(Path(path).read_text())["traceEvents"]
    durs = {"net.req": [], "bank": [], "net.resp": [], "op": []}
    for e in events:
        if e.get("ph") != "X" or e.get("pid") != 1:
            continue
        if e["name"] in durs:
            durs[e["name"]].append(e["dur"])
        elif "bank" in e.get("args", {}):
            durs["op"].append(e["dur"])
    return {k: (statistics.fmean(v) if v else 0.0) for k, v in durs.items()}


def per_layer(h, artifacts):
    m, c, t = h["model"], h["model"]["counters"], h["traced"]
    ops = m["ops_in_window"]
    rep_s = statistics.median(h["rep_s"])
    rows = read_metrics_csv(artifacts / "metrics.csv")
    last = rows[-1]
    spans = span_means(artifacts / "trace.json")
    counts = host_shares(t["samples"])
    total = sum(counts.values())
    core_cycles = c["window_cycles"] * c["active_cores"]
    msgs = c["net_local_tile"] + c["net_same_group"] + c["net_remote_group"]
    closing_msgs = (last["net.msgsLocalTile"] + last["net.msgsSameGroup"]
                    + last["net.msgsRemoteGroup"])
    sc = last["adapter.scSuccesses"] + last["adapter.scFailures"]
    lr = last["adapter.lrGrants"] + last["adapter.lrFails"]
    out = {f"{layer}.host_pct": 100.0 * ratio(n, total)
           for layer, n in counts.items()}
    out.update({
        "trace.samples": total,
        "trace.sampler_overhead_x": statistics.fmean(t["sampled_s"]) / rep_s,
        "sim.events": last["engine.executedEvents"],
        "sim.host_ns_per_event": 1e9 * rep_s / last["engine.executedEvents"],
        "arch.system.teardown_s": h["teardown_s"],
        "core.issued_per_op": ratio(c["instructions"], ops),
        "core.sleep_frac": ratio(c["sleep_cycles"], core_cycles),
        "core.stall_frac": ratio(c["stall_cycles"], core_cycles),
        "sync.rmw_retries_per_op": ratio(last["sync.rmwRetries"], ops),
        "sync.cas_retries": last["sync.casRetries"],
        "atomics.sc_success_ratio": ratio(last["adapter.scSuccesses"], sc),
        "atomics.lr_fail_ratio": ratio(last["adapter.lrFails"], lr),
        "atomics.wakeups_per_op": ratio(last["adapter.wakeUpRequests"]
                                        + last["adapter.mwaitWakes"], ops),
        "arch.network.msgs_per_op": ratio(msgs, ops),
        "arch.network.remote_frac": ratio(c["net_remote_group"], msgs),
        "arch.network.queueing_cycles_per_msg":
            ratio(last["net.queueingDelay"], closing_msgs),
        "arch.bank.requests_per_op": ratio(c["bank_accesses"], ops),
        "arch.bank.backlog_max_cycles": max(r["bank.backlogMax"] for r in rows),
        "arch.network.req_span_cycles": spans["net.req"],
        "arch.bank.span_cycles": spans["bank"],
        "arch.network.resp_span_cycles": spans["net.resp"],
        "core.op_span_cycles": spans["op"],
        "wgen.latency_samples": m["latency_samples"],
        "obs.recorder_overhead_x": t["recorder_s"] / rep_s,
    })
    return out


# --- one workload ----------------------------------------------------------

def run_workload(name, seed, seconds, traced, scale=1, setup_reps=11,
                 plant=False):
    args = workload_args(name, seed, scale)
    extra = ["--seconds", str(seconds), "--setup-reps", str(setup_reps)]
    artifacts = BUILD / "artifacts" / name
    if traced:
        artifacts.mkdir(parents=True, exist_ok=True)
        extra += ["--traced", str(artifacts)]
    if plant:
        extra.append("--plant-mismatch")
    h = run_harness(args, extra)
    if traced:
        (artifacts / "harness.json").write_text(json.dumps(h))
    result = {
        "cli": " ".join(["colibri-sim", *args]),
        "attempted": h["attempted"],
        "failed": h["failed"],
        "failures": h["failures"],
        "cross_check": cli_cross_check(name, seed),
    }
    if "model" in h and h["rep_s"]:
        result["end_to_end"] = {k: summary(v)
                                for k, v in end_to_end(h).items()}
        if traced and "traced" in h:
            result["per_layer"] = per_layer(h, artifacts)
    return result


def correct(result):
    return (result["failed"] == 0 and result["cross_check"]
            and "end_to_end" in result)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}", 2)


def result_line(result, bench, trace):
    """The one-line JSON result that ends stdout in --workload mode."""
    metrics = {}
    if trace:
        for m in bench["per_layer"]:
            value = result.get("per_layer", {}).get(m["name"])
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            s = result.get("end_to_end", {}).get(m["name"])
            if s is not None:
                metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
    return json.dumps({"correct": correct(result),
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def fmt(x):
    return f"{x:.6g}"


def print_workload(name, result, bench):
    print(f"== {name}: {result['cli']}")
    print(f"   {result['attempted']} reps attempted, {result['failed']} failed;"
          f" CLI cross-check {'ok' if result['cross_check'] else 'FAILED'}")
    for f in result["failures"]:
        print(f"   failed: {f}")
    print(f"   {'metric':<40} {'unit':<12} {'median':>12} {'q1':>12}"
          f" {'q3':>12} {'n':>3}")
    for m in bench["end_to_end"]:
        s = result.get("end_to_end", {}).get(m["name"])
        if s:
            print(f"   {m['name']:<40} {m['unit']:<12} {fmt(s['median']):>12}"
                  f" {fmt(s['q1']):>12} {fmt(s['q3']):>12} {s['n']:>3}")
    for m in bench["per_layer"]:
        v = result.get("per_layer", {}).get(m["name"])
        if v is not None:
            print(f"   {m['name']:<40} {m['unit']:<12} {fmt(v):>12}"
                  f" {'':>12} {'':>12} {1:>3}")


# --- self-test -------------------------------------------------------------

def self_test(bench):
    start = time.monotonic()
    errors = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py's")
    for name in WORKLOADS:
        r = run_workload(name, DEFAULT_SEED, 0, traced=True, scale=100,
                         setup_reps=3)
        print(f"{name}: {r['cli']}")
        if not correct(r):
            errors.append(f"{name}: failed reps or CLI mismatch: "
                          f"{r['failures']} cross_check={r['cross_check']}")
            continue
        printed = {}
        for trace in (0, 1):
            printed.update(json.loads(result_line(r, bench, trace))["metrics"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            p = printed.get(m["name"], {})
            if p.get("unit") != m["unit"] or not math.isfinite(p["value"]):
                errors.append(f"{name}: metric {m['name']} missing, without "
                              "its unit, or not finite")
        share = sum(r["per_layer"][f"{layer}.host_pct"] for layer in LAYERS)
        if abs(share - 100.0) > 0.5:
            errors.append(f"{name}: host shares sum to {share}")
    planted = run_workload("hist16_colibri", DEFAULT_SEED, 0, traced=False,
                           scale=100, setup_reps=1, plant=True)
    if planted["failed"] != 1:
        errors.append(f"planted digest mismatch counted {planted['failed']}"
                      " failed reps, expected 1")
    elapsed = time.monotonic() - start
    for e in errors:
        print(f"FAIL {e}")
    print(f"self-test {'passed' if not errors else 'FAILED'} in "
          f"{elapsed:.1f} s")
    return 0 if not errors else 1


# --- main ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="all-workload mode: add the per-layer run")
    ap.add_argument("--out", type=Path, default=BUILD / "e2e-results.json")
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()

    bench = load_benchmark()
    ensure_built()
    seconds = opts.seconds if opts.seconds is not None else bench["run_seconds"]
    if opts.self_test:
        return self_test(bench)

    if opts.workload:
        result = run_workload(opts.workload, opts.seed, seconds,
                              traced=bool(opts.trace))
        print_workload(opts.workload, result, bench)
        print(result_line(result, bench, opts.trace))
        return 0

    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, opts.seed, seconds, opts.traced)
        print_workload(name, results[name], bench)
    lrsc = results["hist16_lrsc"].get("end_to_end", {})
    colibri = results["hist16_colibri"].get("end_to_end", {})
    if lrsc and colibri:
        def ratio_of(k):
            return colibri[k]["median"] / lrsc[k]["median"]
        print("modelled colibri / lrsc_single on hist16 (unvalidated model):"
              f" throughput x{ratio_of('model_ops_per_cycle'):.3f},"
              f" energy per op x{ratio_of('model_pj_per_op'):.3f}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"{failed} failed of {attempted} attempted reps")
    doc = {
        "schema": "colibri-e2e-v1",
        "seed": opts.seed,
        "seconds": seconds,
        "host": host_info(),
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                "bound": m["bound"],
                                "exact": m["name"] in DETERMINISTIC}
                    for m in bench["end_to_end"]},
        "workloads": results,
    }
    opts.out.parent.mkdir(parents=True, exist_ok=True)
    opts.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"results written to {opts.out}")
    return 0 if all(correct(r) for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
