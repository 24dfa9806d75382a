#!/usr/bin/env python3
"""Compare two sets of benchmark results.

  python3 benchmark/compare.py BASE CHANGED

BASE and CHANGED each name result records written by benchmark/run.py
(under .bench_build/results/): a file, a directory of them, or a quoted
glob such as '.bench_build/results/brute-q2-*-e2e-*.json'.  For every
(metric, workload) pair found on both sides the script prints each
side's median, quartiles and run count, the change of the median, and
one verdict, judged against the bounds in BENCHMARK.json:

  worse       the changed median is worse than the base median by more
              than the metric's bound
  improved    better by more than the base's own spread (quartile
              distance over median), and the changed side wins at least
              nine tenths of all (base, changed) run pairs; it needs at
              least MIN_GAIN_RUNS runs a side
  unchanged   neither of the above, with both spreads within the bound
  unresolved  a spread exceeds the bound, or a side has fewer than 3
              runs (unless every changed run beats, or loses to, every
              base run)
  refused     a wall-time metric whose runs come from different hosts
              (host = nproc, OCaml version, kernel, and the Python
              version, which sets the speed of the calibration loop)

fail_frac is worse on any increase.  Per-layer metrics have no bound;
they are listed with their change only, and so is host.cal_s, the
median calibration reading: a side whose runs read it higher ran on a
slower host.  Exits 1 when some pair is worse, 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIME_UNITS = {"s", "ms", "ns", "1/s"}
MIN_GAIN_RUNS = 10  # a gain is claimed on ten or more runs a side


def load(pattern):
    """Result records from a file, a directory of them, or a glob."""
    if os.path.isdir(pattern):
        pattern = os.path.join(pattern, "*.json")
    runs = []
    for f in sorted(glob.glob(pattern)):
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and {"host", "workload", "metrics"} <= doc.keys():
            runs.append(doc)
    return runs


def series(runs):
    """(metric, workload) -> list of values, one per run."""
    out = {}
    for r in runs:
        for name, m in r["metrics"].items():
            out.setdefault((name, r["workload"]), []).append(m["value"])
    return out


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(base, new, bound, lower_better):
    sign = 1 if lower_better else -1
    mb, _, _, sb = summary(base)
    mn, _, _, sn = summary(new)
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    wins = [sign * (n - b) < 0 for b in base for n in new]
    losses = [sign * (n - b) > 0 for b in base for n in new]
    if len(base) < 3 or len(new) < 3:
        return "unresolved"
    gain_runs = min(len(base), len(new)) >= MIN_GAIN_RUNS
    if max(sb, sn) > bound:
        if all(wins) and gain_runs:
            return "improved"
        return "worse" if all(losses) and worse_by > bound else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > sb and sum(wins) >= 0.9 * len(wins) and gain_runs:
        return "improved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    ap.add_argument("base", help="result file, directory or quoted glob (base)")
    ap.add_argument("changed", help="result file, directory or quoted glob (changed)")
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    base, new = load(args.base), load(args.changed)
    if not base or not new:
        print("compare: no result files on one side", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        print("note: runs come from different hosts; wall-time verdicts refused:")
        for h in sorted(hosts):
            print(f"  {h}")
    for side, runs in (("base", base), ("changed", new)):
        commits = sorted({r["commit"] for r in runs})
        print(f"{side}: {len(runs)} runs, commits {', '.join(commits)}, "
              f"seeds {sorted({r['seed'] for r in runs})}")
    sb, sn = series(base), series(new)
    print(f"{'metric':<24} {'workload':<13} {'base median [q1, q3] (runs)':<36} "
          f"{'changed median [q1, q3] (runs)':<36} {'change':>8}  verdict")
    worse = False
    for key in sorted(sb.keys() & sn.keys(), key=lambda k: (k[0] not in bounds, k)):
        name, workload = key
        spec = bounds.get(name) or layers.get(name)
        if spec is None and name not in ("fail_frac", "host.cal_s"):
            continue
        b, n = sb[key], sn[key]
        mb, b1, b3, _ = summary(b)
        mn, n1, n3, _ = summary(n)
        change = f"{100 * (mn - mb) / abs(mb):+.1f}%" if mb else "-"
        if name == "fail_frac":
            v = "worse" if max(n) > max(b) else "unchanged"
        elif name not in bounds:
            v = "-"
        elif len(hosts) > 1 and spec["unit"] in TIME_UNITS:
            v = "refused"
        else:
            v = verdict(b, n, spec["bound"], spec["better"] == "lower")
        worse = worse or v == "worse"
        print(f"{name:<24} {workload:<13} "
              f"{f'{mb:.4g} [{b1:.4g}, {b3:.4g}] ({len(b)})':<36} "
              f"{f'{mn:.4g} [{n1:.4g}, {n3:.4g}] ({len(n)})':<36} "
              f"{change:>8}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
