#!/usr/bin/env python3
"""Validate the schema of BENCH_*.json telemetry files.

Usage: check_bench_json.py BENCH_e1.json [BENCH_micro.json ...]

Every file must be valid JSON carrying the v1 telemetry schema written
by bench/main.ml: the headline keys, a row list, and a metrics snapshot
with the three sections.  Exits non-zero naming the first problem.
"""
import json
import sys

HEADLINE = {
    "experiment": str,
    "schema_version": int,
    "jobs": int,
    # the host and the sample count behind each timing
    "cores": int,
    "ocaml_version": str,
    "samples": int,
    "wall_time_s": (int, float),
    "model_check_calls": int,
    "hypotheses_enumerated": int,
    "resumed": bool,
    "checkpoint_writes": int,
    "events_recorded": int,
    "rows": list,
    "metrics": dict,
}
METRIC_SECTIONS = ("counters", "gauges", "histograms")

# experiment-specific headline keys (spliced in by bench/main.ml's
# bench_extra_headline)
EXTRA_HEADLINE = {
    # e3 reports the exponent of its tp rows over n at ell = 1, the
    # shape it gates on (Prop 11: ell + 2 = 3)
    "e3": {
        "tp_row_exponent_ell1": (int, float),
    },
    # e21 reports the hot-path engine's health: how many evaluations hit
    # the compile cache, how often intern shards caught up with the
    # global table, and the erm_brute speedup at 4 jobs (gated in CI
    # only when the runner actually has >= 4 cores)
    "e21": {
        "compile_hits": int,
        "intern_shard_merges": int,
        "speedup_at_4_jobs": (int, float),
        "identical": bool,
    },
    # e22 reports the resident service's health: total requests pushed
    # through the engine across its legs, how many a stingy tenant had
    # refused at admission, how many the bounded queue shed under
    # saturation, and the warm-engine speedup over a cold CLI process
    "e22": {
        "requests": int,
        "rejected": int,
        "shed": int,
        "warm_speedup": (int, float),
    },
}


def fail(msg: str) -> None:
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def check(path: str) -> None:
    # the bench writes telemetry with an atomic temp-file + rename, so a
    # zero-length or truncated file means that protocol broke
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        fail(f"{path}: {exc}")
    if len(raw) == 0:
        fail(f"{path}: zero-length file (torn or unflushed write)")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        fail(f"{path}: truncated or partial JSON: {exc}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    for key, ty in HEADLINE.items():
        if key not in doc:
            fail(f"{path}: missing key {key!r}")
        if not isinstance(doc[key], ty):
            fail(f"{path}: key {key!r} has type {type(doc[key]).__name__}")
    for key, ty in EXTRA_HEADLINE.get(doc.get("experiment"), {}).items():
        if key not in doc:
            fail(f"{path}: missing headline key {key!r} "
                 f"(required for {doc['experiment']})")
        if not isinstance(doc[key], ty):
            fail(f"{path}: key {key!r} has type {type(doc[key]).__name__}")
        if doc[key] < 0:
            fail(f"{path}: negative {key}")
    if doc["schema_version"] != 1:
        fail(f"{path}: unknown schema_version {doc['schema_version']}")
    if doc["wall_time_s"] < 0:
        fail(f"{path}: negative wall_time_s")
    if doc["jobs"] < 1:
        fail(f"{path}: jobs must be >= 1")
    if doc["cores"] < 1:
        fail(f"{path}: cores must be >= 1")
    if doc["samples"] < 1:
        fail(f"{path}: samples must be >= 1")
    if doc["checkpoint_writes"] < 0:
        fail(f"{path}: negative checkpoint_writes")
    if doc["events_recorded"] < 0:
        fail(f"{path}: negative events_recorded")
    for section in METRIC_SECTIONS:
        if not isinstance(doc["metrics"].get(section), dict):
            fail(f"{path}: metrics.{section} missing or not an object")
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            fail(f"{path}: rows[{i}] is not an object")
    print(f"{path}: ok ({len(doc['rows'])} rows, "
          f"{len(doc['metrics']['counters'])} counters)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        fail("no files given")
    for p in sys.argv[1:]:
        check(p)
