#!/usr/bin/env python3
"""Compare e2e benchmark results files written by bench/e2e/run.py.

  compare.py A.json B.json
  compare.py --parent A1.json A2.json ... --change B1.json B2.json ...
      A is the parent, B the change. For every metric x workload: each
      side's median and quartiles, and a verdict:
        ok          B is no worse than A by more than the metric's bound
        regressed   B's median is worse than A's by more than the bound
        unresolved  either side's spread (IQR / median) exceeds the bound,
                    and B's values do not all beat A's
        changed     a deterministic (model_*) metric differs; simulated
                    results must match exactly for one seed
      With one file a side, the values are that run's reps. With several,
      they are the runs' medians, so the spread is the run-to-run spread.
      Also prints each side's share of failed reps.

  compare.py --pairs --parent A1.json ... --change B1.json ...
      Applies the claim rule to alternating runs (A1 B1 A2 B2 ...): a gain
      needs at least 10 pairs, B winning at least 9 in 10 of them (ties
      count for neither), and the medians differing by more than the
      parent's IQR.

Exit status: 0 when every verdict is ok (with --pairs: when no
deterministic metric changed), 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"compare.py: cannot read {path}: {e}")
    if doc.get("schema") != "colibri-e2e-v1":
        sys.exit(f"compare.py: {path} is not a colibri-e2e-v1 results file")
    return doc


def summary(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def side(docs, wl, name):
    """One side's values of a metric: a single run's reps, or the medians
    of several runs. None if a run lacks the metric."""
    try:
        runs = [d["workloads"][wl]["end_to_end"][name] for d in docs]
    except KeyError:
        return None
    return summary(runs[0]["values"] if len(runs) == 1
                   else [r["median"] for r in runs])


def spread(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def beats(b, a, better):
    return b > a if better == "higher" else b < a


def verdict(meta, sa, sb):
    if meta["exact"]:
        return "ok" if len(set(sa["values"] + sb["values"])) == 1 \
            else "changed"
    bound, better = meta["bound"], meta["better"]
    if max(spread(sa), spread(sb)) > bound:
        if all(beats(b, a, better) for a in sa["values"] for b in sb["values"]):
            return "ok"
        return "unresolved"
    a, b = sa["median"], sb["median"]
    worse = (a - b) / a if better == "higher" else (b - a) / a
    return "regressed" if worse > bound else "ok"


def fmt(x):
    return f"{x:.5g}"


def cell(s):
    return f"{fmt(s['median'])} [{fmt(s['q1'])}, {fmt(s['q3'])}]"


def seeds_of(docs):
    return {d["seed"] for d in docs}


def compare(parents, changes):
    if seeds_of(parents) != seeds_of(changes) or len(seeds_of(parents)) > 1:
        print("note: the runs use different seeds, so the deterministic "
              "metrics differ by design")
    print(f"{len(parents)} parent run(s), {len(changes)} change run(s)")
    print(f"{'workload':<16} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>8}  verdict")
    bad = 0
    metrics = parents[0]["metrics"]
    for wl in parents[0]["workloads"]:
        for name, meta in metrics.items():
            sa, sb = side(parents, wl, name), side(changes, wl, name)
            if sa is None or sb is None:
                print(f"{wl:<16} {name:<20} missing")
                bad += 1
                continue
            v = verdict(meta, sa, sb)
            bad += v != "ok"
            delta = (sb["median"] - sa["median"]) / sa["median"] \
                if sa["median"] else 0.0
            print(f"{wl:<16} {name:<20} {cell(sa):>34} {cell(sb):>34} "
                  f"{delta:>+8.2%}  {v}")
        for label, docs in (("A", parents), ("B", changes)):
            runs = [d["workloads"].get(wl, {}) for d in docs]
            failed = sum(r.get("failed", 0) for r in runs)
            attempted = sum(r.get("attempted", 0) for r in runs)
            print(f"{wl:<16} failed reps {label}: {failed}/{attempted}"
                  f" ({failed / max(1, attempted):.1%})")
            bad += failed > 0 or attempted == 0
    return 1 if bad else 0


def compare_pairs(parents, changes):
    if len(parents) != len(changes):
        sys.exit("compare.py: --parent and --change need the same count")
    n = len(parents)
    print(f"{n} pairs")
    print(f"{'workload':<16} {'metric':<20} {'parent median [q1, q3]':>36} "
          f"{'change median':>14} {'wins':>6}  verdict")
    changed = 0
    for wl in parents[0]["workloads"]:
        for name, meta in parents[0]["metrics"].items():
            sa, sb = side(parents, wl, name), side(changes, wl, name)
            if n < 2 or sa is None or sb is None:
                print(f"{wl:<16} {name:<20} missing")
                changed += 1
                continue
            wins = sum(beats(b, a, meta["better"])
                       for a, b in zip(sa["values"], sb["values"]))
            if meta["exact"]:
                same = verdict(meta, sa, sb) == "ok"
                v = "identical" if same else "changed"
                changed += not same
            elif n >= 10 and wins >= 0.9 * n and \
                    abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]:
                v = "gain"
            else:
                v = "no gain"
            print(f"{wl:<16} {name:<20} {cell(sa):>36} "
                  f"{fmt(sb['median']):>14} {wins:>3}/{n:<2}  {v}")
    return 1 if changed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", help="A.json B.json")
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--pairs", action="store_true")
    opts = ap.parse_args()
    if opts.files:
        if len(opts.files) != 2 or opts.parent or opts.change:
            ap.error("give A.json B.json, or --parent ... --change ...")
        opts.parent, opts.change = opts.files[:1], opts.files[1:]
    if not opts.parent or not opts.change:
        ap.error("give A.json B.json, or --parent ... --change ...")
    parents = [load(p) for p in opts.parent]
    changes = [load(c) for c in opts.change]
    return (compare_pairs if opts.pairs else compare)(parents, changes)


if __name__ == "__main__":
    sys.exit(main())
