#!/usr/bin/env python3
"""Bounded random fault-injection sweep over the colibri-sim CLI.

Each trial draws an adapter, a workload, a simulation seed, a fault
profile and a 64-bit fault seed from a seeded RNG, runs colibri-sim with
--json (each rep of a run with faults on carries a "fault" block), and
checks three things:

  1. the run exits 0 (no invariant violation, no watchdog trip),
  2. every repetition reports "verified": true (faults cost retries,
     never correctness),
  3. the run is deterministic: a second identical invocation produces
     byte-identical stdout.

The sweep is bounded (--trials, --timeout) and reproducible (--seed fixes
the whole schedule). On any failure the script prints the exact one-line
command that reproduces it, then exits 1.

Usage:
  scripts/fault_fuzz.py --bin build/colibri-sim --trials 20
  scripts/fault_fuzz.py --bin build/colibri-sim --seed 7 --trials 50
  scripts/fault_fuzz.py --self-test     # no binary needed; run as a CTest

Exit status: 0 = all trials passed, 1 = a trial failed (repro printed),
2 = usage error.
"""

import argparse
import json
import random
import shlex
import subprocess
import sys

ADAPTERS = ["amo", "lrsc_single", "lrsc_table", "lrscwait", "colibri"]
WORKLOADS = ["histogram", "msqueue", "uniform_fa", "zipf_hot"]
PROFILES = ["net_jitter", "sc_storm", "evict_churn", "chaos"]

# Small fixed geometry: 16 cores in 2 groups — big enough for real
# contention and remote-group traffic, small enough that a 50-trial sweep
# finishes in seconds.
GEOMETRY = [
    "--cores", "16", "--cores-per-tile", "4", "--tiles-per-group", "2",
    "--banks-per-tile", "4", "--warmup", "500", "--measure", "2000",
]


def make_trial(rng):
    """One trial's CLI arguments (everything after the binary path)."""
    return GEOMETRY + [
        "--adapter", rng.choice(ADAPTERS),
        "--workload", rng.choice(WORKLOADS),
        "--seed", str(rng.getrandbits(32) | 1),
        "--fault", rng.choice(PROFILES),
        "--fault-seed", str(rng.getrandbits(64) | 1),
        "--json",
    ]


def repro_line(binary, args):
    return shlex.join([binary] + args)


def verdict(returncode, stdout):
    """(ok, reason) for one completed run's exit code + JSON stdout."""
    if returncode != 0:
        return False, f"exit code {returncode} (want 0)"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        return False, f"stdout is not valid JSON: {e}"
    runs = doc.get("runs", [])
    if not runs:
        return False, "JSON has no runs"
    for run in runs:
        if not run.get("aggregate", {}).get("allVerified", False):
            return False, "aggregate.allVerified is false"
        for rep in run.get("reps", []):
            if not rep.get("verified", False):
                return False, f"rep seed={rep.get('seed')} not verified"
            fault = rep.get("fault")
            if fault is None:
                return False, "fault block missing"
            if fault.get("seed", 0) == 0:
                return False, "fault.seed is 0 with a profile active"
    return True, "ok"


def run_one(binary, args, timeout):
    try:
        p = subprocess.run(
            [binary] + args, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout}s"
    except OSError as e:
        return None, f"cannot run {binary}: {e}"
    return p, None


def fuzz(binary, trials, seed, timeout):
    rng = random.Random(seed)
    for i in range(trials):
        args = make_trial(rng)
        first, err = run_one(binary, args, timeout)
        if first is not None:
            ok, reason = verdict(first.returncode, first.stdout)
        else:
            ok, reason = False, err
        if ok:
            second, err = run_one(binary, args, timeout)
            if second is None:
                ok, reason = False, err
            elif second.stdout != first.stdout:
                ok, reason = False, "rerun stdout diverged (nondeterminism)"
        if not ok:
            print(f"fault_fuzz: trial {i} FAILED: {reason}")
            if first is not None and first.stderr:
                sys.stdout.write(first.stderr)
            print(f"repro: {repro_line(binary, args)}")
            return 1
        print(f"fault_fuzz: trial {i} ok ({describe(args)})")
    print(f"fault_fuzz: {trials} trials passed (seed {seed})")
    return 0


def describe(args):
    d = dict(zip(args, args[1:]))
    return f"{d.get('--adapter')} x {d.get('--workload')} x {d.get('--fault')}"


def self_test():
    """Exercise trial generation and the verdict logic without a binary —
    runs as a CTest so a broken fuzzer fails the build, not a nightly."""
    # The schedule is a pure function of the meta-seed.
    a = [make_trial(random.Random(7)) for _ in range(5)]
    b = [make_trial(random.Random(7)) for _ in range(5)]
    if a != b:
        print("fault_fuzz: self-test FAILED (schedule not reproducible)")
        return 1
    if a == [make_trial(random.Random(8)) for _ in range(5)]:
        print("fault_fuzz: self-test FAILED (meta-seed ignored)")
        return 1
    for trial in a:
        for flag in ("--adapter", "--fault", "--fault-seed"):
            if flag not in trial:
                print(f"fault_fuzz: self-test FAILED ({flag} missing)")
                return 1

    good = json.dumps({
        "runs": [{
            "aggregate": {"allVerified": True},
            "reps": [{"verified": True, "seed": 1,
                      "fault": {"seed": 99, "injected": 3}}],
        }]
    })
    ok, _ = verdict(0, good)
    if not ok:
        print("fault_fuzz: self-test FAILED (clean run flagged)")
        return 1
    cases = [
        (3, good, "watchdog exit not flagged"),
        (0, good.replace("true", "false"), "unverified rep not flagged"),
        (0, "not json", "malformed JSON not flagged"),
        (0, json.dumps({"runs": []}), "empty runs not flagged"),
        (0, good.replace('"seed": 99', '"seed": 0'),
         "zero fault seed not flagged"),
    ]
    for rc, out, msg in cases:
        ok, _ = verdict(rc, out)
        if ok:
            print(f"fault_fuzz: self-test FAILED ({msg})")
            return 1

    line = repro_line("./colibri-sim", a[0])
    if shlex.split(line) != ["./colibri-sim"] + a[0]:
        print("fault_fuzz: self-test FAILED (repro line does not round-trip)")
        return 1
    print("fault_fuzz: self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--bin", help="path to the colibri-sim binary")
    parser.add_argument(
        "--trials", type=int, default=20,
        help="number of random trials (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="meta-seed fixing the whole trial schedule (default: "
        "%(default)s)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-run wall-clock limit in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the fuzzer's own schedule + verdict logic and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.bin:
        parser.error("--bin is required (or use --self-test)")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    return fuzz(args.bin, args.trials, args.seed, args.timeout)


if __name__ == "__main__":
    sys.exit(main())
