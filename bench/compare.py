#!/usr/bin/env python3
"""Diff two BENCH_<exp>.json telemetry files and flag regressions.

Usage: compare.py BASELINE CURRENT [--tol FRAC] [--time-tol FRAC]

Compares the deterministic substance of a benchmark run — the headline
work counters (model_check_calls, hypotheses_enumerated,
checkpoint_writes, events_recorded), the metric-snapshot counters, the
row count, and the work counts inside the rows (ROW_FIELDS) — and exits
non-zero on any mismatch beyond tolerance.

Design choices, so the gate stays useful in CI:
- integer work counters compare EXACTLY by default (the solvers are
  deterministic at jobs 1; a drifting counter is a behaviour change,
  not noise).  --tol 0.05 relaxes every counter to +/-5%.
- wall_time_s and other timings are IGNORED unless --time-tol is
  given: shared CI runners make time gates flaky, counter gates are
  the reliable regression signal.
- a counter present in the baseline must exist in the current run
  (deleting instrumentation silently is a regression); counters that
  are new in the current run are allowed (instrumentation grows).
- --skip-counters REGEX exempts scheduling-dependent counters (cache
  hit/miss splits, intern shard merges, per-worker task tallies) whose
  values legitimately vary with the core count or chunking even though
  the solver output is byte-identical.
- row fields compare exactly, row by row, for the experiments and
  fields in ROW_FIELDS: the work each calibration row did.  Fields that
  depend on the schedule or the clock (e21 speedups, e22 fuel_at_kill,
  ran and shed) are not listed.  A mismatch names the row index and
  the field.
- the events_recorded headline depends on the core count too: Par
  clamps every pool to the host's cores, and only a pool of two or more
  domains opens a par.run span.  When both files record `cores` and
  the values differ, that headline is skipped with a note.
"""
import argparse
import json
import re
import sys

HEADLINE_COUNTERS = (
    "model_check_calls",
    "hypotheses_enumerated",
    "checkpoint_writes",
    "events_recorded",
)

# per experiment, the row fields that are a deterministic count of work
ROW_FIELDS = {
    "e15": ("fuel_spent",),
    "e18": (
        "fuel_observed",
        "table_observed",
        "ball_observed",
        "hypotheses_observed",
        "type_evals_observed",
    ),
}


def load(path):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare: {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def within(base, cur, tol):
    if tol is None or tol == 0.0:
        return base == cur
    if base == 0:
        return cur == 0
    return abs(cur - base) <= abs(base) * tol


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tol", type=float, default=0.0,
        help="relative tolerance for every counter (default 0: exact)")
    ap.add_argument(
        "--time-tol", type=float, default=None,
        help="also gate wall_time_s within this relative tolerance "
             "(default: timings are not compared)")
    ap.add_argument(
        "--skip-counters", metavar="REGEX", default=None,
        help="exclude metric counters matching this regex (re.search) "
             "from the comparison; use for scheduling-dependent "
             "counters that vary with core count or chunking")
    args = ap.parse_args()
    skip_re = re.compile(args.skip_counters) if args.skip_counters else None

    base = load(args.baseline)
    cur = load(args.current)
    problems = []

    def check(what, b, c, tol):
        if not within(b, c, tol):
            problems.append(f"{what}: baseline {b}, current {c}")

    if base.get("experiment") != cur.get("experiment"):
        problems.append(
            f"experiment: baseline {base.get('experiment')!r}, "
            f"current {cur.get('experiment')!r}")
    if base.get("jobs") != cur.get("jobs"):
        problems.append(
            f"jobs: baseline {base.get('jobs')}, current {cur.get('jobs')} "
            "(counter determinism only holds at matching job counts)")

    cores_differ = ("cores" in base and "cores" in cur
                    and base["cores"] != cur["cores"])
    for key in HEADLINE_COUNTERS:
        if key in base:
            if key == "events_recorded" and cores_differ:
                print(f"compare: {cur.get('experiment', '?')}: headline "
                      f"events_recorded skipped: baseline "
                      f"recorded on {base['cores']} core(s), current on "
                      f"{cur['cores']} (par.run spans open only on pools of "
                      f"2+ domains)")
            elif key not in cur:
                problems.append(f"headline {key}: missing from current run")
            else:
                check(f"headline {key}", base[key], cur[key], args.tol)

    base_counters = base.get("metrics", {}).get("counters", {})
    cur_counters = cur.get("metrics", {}).get("counters", {})
    skipped = 0
    for name in sorted(base_counters):
        if skip_re is not None and skip_re.search(name):
            skipped += 1
        elif name not in cur_counters:
            problems.append(f"counter {name}: missing from current run")
        else:
            check(f"counter {name}", base_counters[name], cur_counters[name],
                  args.tol)

    # rows carry per-config results; their COUNT is deterministic even
    # when their timing fields are not
    base_rows = base.get("rows", [])
    cur_rows = cur.get("rows", [])
    check("row count", len(base_rows), len(cur_rows), None)
    row_fields = ROW_FIELDS.get(base.get("experiment"), ())
    row_checks = 0
    for i, (brow, crow) in enumerate(zip(base_rows, cur_rows)):
        for field in row_fields:
            if field not in brow and field not in crow:
                continue
            row_checks += 1
            if field not in crow:
                problems.append(f"row {i} {field}: missing from current run")
            elif field not in brow:
                problems.append(f"row {i} {field}: missing from baseline")
            else:
                check(f"row {i} {field}", brow[field], crow[field], None)

    if args.time_tol is not None:
        check("wall_time_s", base.get("wall_time_s", 0.0),
              cur.get("wall_time_s", 0.0), args.time_tol)

    exp = cur.get("experiment", "?")
    if problems:
        print(f"compare: {exp}: {len(problems)} regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        sys.exit(1)
    new = sorted(set(cur_counters) - set(base_counters))
    extra = f", {len(new)} new counter(s)" if new else ""
    skipnote = f", {skipped} skipped" if skipped else ""
    rownote = f", {row_checks} row fields" if row_checks else ""
    print(f"compare: {exp}: ok ({len(base_counters) - skipped} counters"
          f"{rownote} matched{skipnote}{extra})")


if __name__ == "__main__":
    main()
