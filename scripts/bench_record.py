#!/usr/bin/env python3
"""Run a benchmark binary and archive its JSON output.

Seeds the repo's performance trajectory: CI runs this after every build
and archives the results (BENCH_engine.json, BENCH_wgen.json), so
throughput regressions show up as artifact diffs rather than anecdotes.

Two modes:
  gbench (default)  google-benchmark binary; passes --benchmark_format=json
                    and summarizes per-benchmark iteration rows.
  exp               a binary that prints a colibri-exp JSON document on
                    stdout (e.g. `bench_wgen_contention --json`);
                    validates the schema tag and summarizes per-run rates.

Usage:
  scripts/bench_record.py                         # engine bench, defaults
  scripts/bench_record.py --bench build/bench_sim_engine \\
      --out BENCH_engine.json --filter 'Engine|Construct' \\
      -- --benchmark_min_time=0.5
  scripts/bench_record.py --mode exp --bench build/bench_wgen_contention \\
      --out BENCH_wgen.json -- --json
"""

import argparse
import json
import subprocess
import sys


def summarize_gbench(report) -> list:
    rows = []
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        rate = (
            f"{b['items_per_second'] / 1e6:10.2f} M items/s"
            if b.get("items_per_second")
            else ""
        )
        rows.append((b["name"], b.get("real_time"), b.get("time_unit", "ns"), rate))
    return rows


def summarize_exp(report) -> list:
    schema = report.get("schema", "")
    if not schema.startswith("colibri-exp"):
        print(
            f"bench_record: unexpected schema '{schema}' (want colibri-exp-*)",
            file=sys.stderr,
        )
        return []
    return [
        (
            run.get("label", "?"),
            run.get("aggregate", {}).get("opsPerCycle", {}).get("mean"),
            "ops/cycle",
            "",
        )
        for run in report.get("runs", [])
    ]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--bench",
        default="build/bench_sim_engine",
        help="benchmark binary to run (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--mode",
        choices=["gbench", "exp"],
        default="gbench",
        help="binary flavor: google-benchmark or colibri-exp JSON emitter",
    )
    parser.add_argument(
        "--filter",
        default="",
        help="--benchmark_filter regex (gbench mode; default: all)",
    )
    parser.add_argument(
        "extra",
        nargs="*",
        help="extra arguments passed through to the binary (after --)",
    )
    args = parser.parse_args()

    cmd = [args.bench]
    if args.mode == "gbench":
        cmd.append("--benchmark_format=json")
        if args.filter:
            cmd.append(f"--benchmark_filter={args.filter}")
    cmd += args.extra

    print(f"bench_record: running {' '.join(cmd)}", file=sys.stderr)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"bench_record: cannot run {args.bench}: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench_record: {args.bench} exited {proc.returncode}", file=sys.stderr)
        return proc.returncode

    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(f"bench_record: benchmark output is not valid JSON: {e}", file=sys.stderr)
        return 1

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    rows = summarize_gbench(report) if args.mode == "gbench" else summarize_exp(report)
    if not rows:
        print("bench_record: no benchmark results in output", file=sys.stderr)
        return 1

    width = max(len(name) for name, *_ in rows)
    print(f"bench_record: wrote {args.out}")
    for name, value, unit, rate in rows:
        value_text = f"{value:12.4f}" if value is not None else " " * 12
        print(f"  {name:<{width}}  {value_text} {unit}  {rate}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
