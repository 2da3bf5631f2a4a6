#!/usr/bin/env python3
"""Diff a fresh experiment run against a committed baseline and gate on it.

The counterpart to bench_record.py: where that script archives a run, this
one fails CI when the run regressed. Reads two colibri-exp JSON documents
(e.g. BENCH_wgen.json) and compares them label by label. The numbers are
simulated and bit-deterministic, so the gate is hard: any per-label drop
in aggregate ops/cycle beyond the threshold fails, as does any rise in the
per-op p99 latency where the document reports one.

Exit status: 0 = within threshold, 1 = regression (or malformed input),
2 = usage error. Improvements never fail.

Usage:
  scripts/bench_compare.py BENCH_wgen.json fresh_wgen.json
  scripts/bench_compare.py --threshold 0 det_t1.json det_t4.json
  scripts/bench_compare.py --self-test      # exercises the gate itself
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        return None


def exp_series(report):
    """label -> {"opsPerCycle": mean, "p99": latency} from a colibri-exp doc."""
    schema = report.get("schema", "")
    if not schema.startswith("colibri-exp"):
        print(
            f"bench_compare: unexpected schema '{schema}' (want colibri-exp-*)",
            file=sys.stderr,
        )
        return None
    series = {}
    for run in report.get("runs", []):
        label = run.get("label", "?")
        entry = {}
        mean = run.get("aggregate", {}).get("opsPerCycle", {}).get("mean")
        if mean is not None:
            entry["opsPerCycle"] = mean
        reps = run.get("reps", [])
        p99s = [r["opLatency"]["p99"] for r in reps if "opLatency" in r]
        if p99s:
            entry["p99"] = sum(p99s) / len(p99s)
        if entry:
            series[label] = entry
    return series


# Per-metric direction: +1 = bigger is better (throughput), -1 = smaller is
# better (latency).
DIRECTION = {"opsPerCycle": 1, "p99": -1}


def compare(base, cur, threshold):
    """Return (regressions, rows) comparing metric dicts keyed by series."""
    regressions = []
    rows = []
    for name in sorted(base):
        if name not in cur:
            rows.append((name, "-", "-", "-", "MISSING"))
            regressions.append(f"{name}: series missing from current run")
            continue
        for metric, b in sorted(base[name].items()):
            c = cur[name].get(metric)
            if c is None or b == 0:
                continue
            change = (c - b) / b
            bad = change * DIRECTION[metric] < -threshold
            rows.append(
                (name, metric, f"{b:.6g}", f"{c:.6g}", f"{change:+.1%}" + (" REGRESSION" if bad else ""))
            )
            if bad:
                regressions.append(
                    f"{name} [{metric}]: {b:.6g} -> {c:.6g} ({change:+.1%}, "
                    f"threshold {threshold:.0%})"
                )
    return regressions, rows


def self_test(threshold):
    """The gate must trip on an injected 12% regression and stay quiet on
    identical inputs — run as a CTest so the gate itself is regression-
    tested."""
    base = {
        "a": {"opsPerCycle": 1.00, "p99": 100.0},
        "b": {"opsPerCycle": 0.50},
    }
    same, _ = compare(base, base, threshold)
    if same:
        print("bench_compare: self-test FAILED (identical inputs flagged)")
        return 1
    slower = {
        "a": {"opsPerCycle": 0.88, "p99": 100.0},  # -12% throughput
        "b": {"opsPerCycle": 0.50},
    }
    hit, _ = compare(base, slower, threshold)
    if not hit:
        print("bench_compare: self-test FAILED (12% drop not flagged)")
        return 1
    latency = {
        "a": {"opsPerCycle": 1.00, "p99": 115.0},  # +15% p99
        "b": {"opsPerCycle": 0.50},
    }
    hit, _ = compare(base, latency, threshold)
    if not hit:
        print("bench_compare: self-test FAILED (p99 rise not flagged)")
        return 1
    faster = {
        "a": {"opsPerCycle": 1.30, "p99": 60.0},
        "b": {"opsPerCycle": 0.55},
    }
    ok, _ = compare(base, faster, threshold)
    if ok:
        print("bench_compare: self-test FAILED (improvement flagged)")
        return 1
    missing = dict(base)
    del missing["b"]
    hit, _ = compare(base, missing, threshold)
    if not hit:
        print("bench_compare: self-test FAILED (missing series not flagged)")
        return 1
    print("bench_compare: self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="fresh run JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed fractional regression (default: %(default)s)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate trips on an injected regression and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.threshold)
    if not args.baseline or not args.current:
        parser.error("baseline and current JSON paths are required")

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    if base_doc is None or cur_doc is None:
        return 1

    base = exp_series(base_doc)
    cur = exp_series(cur_doc)
    if base is None or cur is None:
        return 1
    if not base:
        print("bench_compare: baseline has no comparable series", file=sys.stderr)
        return 1

    regressions, rows = compare(base, cur, args.threshold)
    width = max(len(name) for name, *_ in rows)
    print(f"bench_compare: {args.baseline} vs {args.current} "
          f"(threshold {args.threshold:.0%})")
    for name, metric, b, c, verdict in rows:
        print(f"  {name:<{width}}  {metric:<12} {b:>12} -> {c:>12}  {verdict}")
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s):")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
