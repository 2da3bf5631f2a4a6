#!/usr/bin/env python3
"""Run an experiment bench and archive its colibri-exp JSON output.

Seeds the repo's simulated-results trajectory: CI runs this after every
build and archives the result (BENCH_wgen.json), so a throughput drop shows
up as an artifact diff rather than an anecdote. The binary must print a
colibri-exp JSON document on stdout (e.g. `bench_wgen_contention --json`);
the script validates the schema tag and summarizes per-run rates.

Usage:
  scripts/bench_record.py -- --json               # wgen sweep, defaults
  scripts/bench_record.py --bench build/bench_wgen_contention \\
      --out fresh_wgen.json -- --json
"""

import argparse
import json
import subprocess
import sys


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
        )
        for run in report.get("runs", [])
    ]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--bench",
        default="build/bench_wgen_contention",
        help="benchmark binary to run (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_wgen.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "extra",
        nargs="*",
        help="extra arguments passed through to the binary (after --)",
    )
    args = parser.parse_args()

    cmd = [args.bench] + args.extra

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

    rows = summarize_exp(report)
    if not rows:
        print("bench_record: no benchmark results in output", file=sys.stderr)
        return 1

    width = max(len(name) for name, _ in rows)
    print(f"bench_record: wrote {args.out}")
    for name, value in rows:
        value_text = f"{value:12.4f}" if value is not None else " " * 12
        print(f"  {name:<{width}}  {value_text} ops/cycle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
