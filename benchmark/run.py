#!/usr/bin/env python3
"""The folearn benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root (stdlib only; builds the program itself):

  python3 benchmark/run.py                       every workload, seed 1
  python3 benchmark/run.py --workload brute-q2 --seed 7 --seconds 20
  python3 benchmark/run.py --workload serve-mixed --trace 1
  python3 benchmark/run.py --smoke               one request per workload
  python3 benchmark/run.py --record-golden       (re)write golden/seed-{1,2,3}.json

An untraced run times the built `folearn_cli` the way users run it: one
process per answer for the CLI workloads, one `folearn serve` daemon for
serve-mixed, and reports its times at a reference host speed, read
from a fixed loop timed on the program's CPU while it runs.  A traced
run (`--trace 1`) replays the same requests in-process through
`layers.exe` with a span around every call into a layer and prints the
per-layer numbers.  Every answer is checked: against the golden digest
when the seed has one, and always against the semantic validators of
workloads.py and against earlier answers to the same request.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a full record goes to .bench_build/results/.  See
benchmark/README.md.
"""

import argparse
import asyncio
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in benchmark/

import rpc  # noqa: E402
import spawn  # noqa: E402
import workloads as W  # noqa: E402

BUILD = ".bench_build"
CLI = os.path.join(BUILD, "default", "bin", "folearn_cli.exe")
LAYERS = os.path.join(BUILD, "default", "benchmark", "layers.exe")
GOLDEN = os.path.join(HERE, "golden")
SETUPS = 5  # set-ups per run; setup_s is their median
SERVE_RATE = 5.0  # serve-mixed phase A arrivals per second
SERVE_CONNS = 2  # client connections (nproc on the reference host)
OPEN_LOOP_SHARE = 0.8  # of --seconds, for the open loop
SERVE_SLICES = 3  # serve-mixed alternates open and closed loop this often
CAL_LOOP = 5_000  # iterations of the calibration loop
CAL_REF_S = 0.0003  # its CPU time on the reference host (README: Host speed)
CAL_EVERY_S = 0.05  # spacing of its readings while the program runs


def die(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


# -- environment and build ---------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOLEARN_")}
    tmp = os.path.join(ROOT, BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # keep the compiler's and dune's scratch files inside the checkout
    env.update(TMPDIR=tmp, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(ROOT, BUILD, "cache"))
    return env


def build(env):
    cmd = ["dune", "build", "--root", ".", f"--build-dir={BUILD}",
           "--cache=disabled", "--display=quiet", "bin/folearn_cli.exe",
           "benchmark/layers.exe"]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if p.returncode != 0:
        die("build failed:\n" + p.stdout + p.stderr)


def host_stamp(env):
    try:
        ocaml = subprocess.run(["ocamlopt", "-version"], env=env, capture_output=True,
                               text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    # the Python version too: it sets the speed of the calibration loop
    return {"nproc": len(os.sched_getaffinity(0)), "ocaml": ocaml,
            "kernel": platform.release(), "python": platform.python_version()}


def commit_stamp():
    """The git commit of this tree when it is a repository, else a digest
    of the sources."""
    # the ceiling keeps git from looking for a repository above this tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
        top, _, head = p.stdout.partition("\n")
        if p.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return head.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("bin", "lib", "benchmark"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def cal_loop():
    """One reading of the host's speed on this thread's CPU: the CPU time
    of a fixed pure-Python loop, which runs none of the program's code."""
    t = time.thread_time()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return time.thread_time() - t


class Calibrated:
    """A with-block over which the calibration loop is read every
    CAL_EVERY_S on each of cpus, by a thread pinned to each, while the
    program runs there.  A reading is CPU time, so waiting for the CPU
    does not count in it; the readings take under 1% of each CPU from
    the program, the same on every commit.  After the block, `factor`
    takes a time measured in it to the reference host's speed (CAL_REF_S
    over the mean across CPUs of each CPU's median reading), and that
    mean is appended to log."""

    def __init__(self, cpus, log):
        self.cpus = cpus
        self.log = log
        self.factor = None

    def __enter__(self):
        self.done = threading.Event()
        self.readings = [[] for _ in self.cpus]
        self.threads = [threading.Thread(target=self._sample, args=a, daemon=True)
                        for a in zip(self.cpus, self.readings)]
        for t in self.threads:
            t.start()
        return self

    def _sample(self, cpu, readings):
        os.sched_setaffinity(0, {cpu})  # this thread's only
        readings.append(cal_loop())
        while not self.done.wait(CAL_EVERY_S):
            readings.append(cal_loop())

    def __exit__(self, *exc):
        self.done.set()
        for t in self.threads:
            t.join()
        reading = statistics.fmean(statistics.median(r) for r in self.readings)
        self.log.append(reading)
        self.factor = CAL_REF_S / reading


# -- statistics --------------------------------------------------------------


def pct(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)]


def slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den if den else float("nan")


# -- correctness -------------------------------------------------------------


def load_golden(seed):
    path = os.path.join(GOLDEN, f"seed-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


class Checker:
    """Checks answers: the semantic validator, the golden digest when the
    seed has one, and agreement with earlier answers to the same request.
    `add` only hashes, so the timed loops stay cheap; `settle` judges each
    distinct answer once."""

    def __init__(self, workload, seed):
        golden = load_golden(seed)
        self.golden = None if golden is None else golden.get(workload, {})
        self.keys = []  # one per answer, in order
        self.pending = {}  # key -> (request, stdout) awaiting a verdict
        self.verdict = {}  # key -> error or None
        self.canon = {}  # request id -> canonical digest of its first answer

    def add(self, req, code, stdout):
        key = (req["id"], code, hashlib.sha256(stdout).digest())
        if key not in self.verdict:
            self.pending.setdefault(key, (req, stdout))
        self.keys.append(key)
        return key

    def refuse(self, rid, why):
        """An attempt that produced no answer to check."""
        key = (rid, why, None)
        self.verdict[key] = why
        self.keys.append(key)
        return key

    def settle(self):
        for key, (req, stdout) in self.pending.items():
            self.verdict[key] = self._judge(req, key[1], stdout)
        self.pending = {}

    def _judge(self, req, code, stdout):
        err = W.validate(req, code, stdout)
        if err:
            return err
        digest = hashlib.sha256(W.canonical(stdout)).hexdigest()
        if self.golden is not None:
            want = self.golden.get(req["id"])
            if want is None:
                return "no golden digest for this request"
            if (want["code"], want["sha256"]) != (code, digest):
                return "answer differs from the golden one"
        if self.canon.setdefault(req["id"], digest) != digest:
            return "answer differs from an earlier answer to the same request"
        return None

    def ok(self, key):
        return self.verdict[key] is None

    def failures(self):
        return [f"{k[0]}: {self.verdict[k]}" for k in self.keys if self.verdict[k]]


SPAWN = None  # the spawn.Spawner every program process starts from


def shot(argv, log, cpus=None):
    """One CLI process: (latency s, exit code, stdout, cpu s, max rss KB)."""
    return SPAWN.run([CLI] + argv, log, cpus)


class Run:
    """One workload at one seed: its inputs, checker and scratch directory."""

    def __init__(self, workload, seed, env):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.dir = os.path.join(BUILD, "run", f"{workload}-s{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.reqs = W.manifest(workload, seed, os.path.join(self.dir, "g"))
        self.rounds = [[r for r in self.reqs if r["round"] == i] for i in range(W.ROUNDS)]
        self.check = Checker(workload, seed)
        self.log = open(os.path.join(self.dir, "stderr.log"), "ab")
        self.ckpt = os.path.join(self.dir, "ckpt.snap")

    def close(self):
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def cli(self, req, cpus=None):
        """Answer req with a one-shot CLI process: (latency, key, cpu, rss)."""
        lat, code, out, cpu, rss = shot(W.cli_argv(req, self.ckpt), self.log, cpus)
        if req["ckpt_every"] and os.path.exists(self.ckpt):
            os.remove(self.ckpt)
        return lat, self.check.add(req, code, out), cpu, rss

    def daemon(self, cpus=None):
        d = rpc.Daemon(SPAWN, CLI, os.path.join(self.dir, "serve.sock"),
                       os.path.join(self.dir, "jobs"), self.log, cpus)
        try:
            d.wait_listening()
        except BaseException:
            d.kill()
            raise
        return d


def answer_key(check, req, resp):
    if resp.get("status") != "complete":
        return check.refuse(req["id"], f"status {resp.get('status')}")
    return check.add(req, resp["code"], resp["stdout"].encode())


def engine_s(resp):
    return (resp.get("spent") or {}).get("elapsed_ns", 0) / 1e9


async def call(conn, req, deadline_s):
    return await conn.call(rpc.request(req["op"], req["params"], deadline_s))


async def call_once(sock, req):
    conn = await rpc.Conn.open(sock)
    try:
        return await call(conn, req, req["deadline_s"])
    finally:
        await conn.close()


# -- untraced workloads ------------------------------------------------------


def measure_cli(run, seconds):
    """SETUPS cold set-ups, then a closed loop with one caller: one
    process per answer, in whole rounds, as many as take about seconds
    on the reference host (W.ROUND_S).  Every run of a workload at one
    --seconds does the same work, whatever the host's speed.  Every
    process runs on one CPU, calibrated while it runs.  The timed wall
    time is the sum of the answers' times: the caller is back to back."""
    cpus = [min(os.sched_getaffinity(0))]
    cal = []

    def timed(req):
        with Calibrated(cpus, cal) as c:
            lat, key, cpu, rss = run.cli(req, cpus)
        return lat * c.factor, key, cpu * c.factor, rss

    setups = [timed(run.reqs[0]) for _ in range(SETUPS)]
    rounds = max(1, round(seconds / W.ROUND_S[run.workload]))
    shots = [timed(req)  # (latency, key, cpu, rss)
             for rnd in itertools.islice(itertools.cycle(run.rounds), rounds)
             for req in rnd]
    run.check.settle()
    ok = [s for s in shots if run.check.ok(s[1])]
    return {
        "lat": [s[0] for s in ok], "answers": len(ok), "wall": sum(s[0] for s in shots),
        "cpu": sum(s[2] for s in shots), "cpu_answers": len(ok),
        "rss_kb": max(s[3] for s in setups + shots),
        "setups": [s[0] for s in setups if run.check.ok(s[1])],
        "cal": cal, "extra": {},
    }


async def serve_phases(run, sock, seconds, cpus, cal):
    """SERVE_SLICES slices, each phase A then phase B.  Phase A: Poisson
    arrivals at SERVE_RATE, OPEN_LOOP_SHARE of the seconds in all, each
    request timed from its due time.  Phase B: every connection sends
    back to back until one deck block is answered.  Slicing spreads both
    phases over the whole run, so neither reads the host's speed in one
    moment only.  The arrival times and the order of the requests come
    from generators seeded with the workload's name: every seed sends the
    same traffic, to differently numbered graphs.  Each phase is
    calibrated on cpus.  Returns phase A's (latency, engine time, answer
    key, factor to the reference speed), generator lateness and span,
    phase B's answer keys and wall time at the reference speed, and the
    phases' factors."""
    rng_a = random.Random("serve-mixed:open")
    deal_a = W.deck(run.reqs, rng_a)
    deal_b = W.deck(run.reqs, random.Random("serve-mixed:closed"))
    span_a = seconds * OPEN_LOOP_SHARE
    schedule, t = [], rng_a.expovariate(SERVE_RATE)
    while t < span_a:
        schedule.append((t, next(deal_a)))
        t += rng_a.expovariate(SERVE_RATE)
    loop = asyncio.get_running_loop()
    conns = [await rpc.Conn.open(sock) for _ in range(SERVE_CONNS)]
    a, lag, b, factors = [], [], [], []

    async def open_loop(arrivals, start):
        """arrivals: (offset, request), offsets from start on."""
        queue = asyncio.Queue()

        async def worker(conn):
            while (item := await queue.get()) is not None:
                due, req = item
                resp = await call(conn, req, req["deadline_s"])
                a.append((loop.time() - due, engine_s(resp),
                          answer_key(run.check, req, resp)))

        workers = [asyncio.create_task(worker(c)) for c in conns]
        t0 = loop.time() - start
        for offset, req in arrivals:
            due = t0 + offset
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            lag.append(loop.time() - due)
            queue.put_nowait((due, req))
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)

    async def closed_loop():
        work = iter([next(deal_b) for _ in range(W.BLOCK)])

        async def worker(conn):
            for req in work:  # one iterator, shared by the connections
                resp = await call(conn, req, req["deadline_s"])
                b.append(answer_key(run.check, req, resp))

        tb = loop.time()
        await asyncio.gather(*(worker(c) for c in conns))
        return loop.time() - tb

    part = span_a / SERVE_SLICES
    wall_b = 0.0
    try:
        for i in range(SERVE_SLICES):
            n = len(a)
            with Calibrated(cpus, cal) as c:
                await open_loop(
                    [x for x in schedule if i * part <= x[0] < (i + 1) * part], i * part)
            a[n:] = [x + (c.factor,) for x in a[n:]]
            factors.append(c.factor)
            with Calibrated(cpus, cal) as c:
                wall = await closed_loop()
            wall_b += wall * c.factor
            factors.append(c.factor)
    finally:
        for conn in conns:
            await conn.close()
    return a, lag, span_a, b, wall_b, factors


def measure_serve(run, seconds):
    """SETUPS daemon set-ups, each to its first answer; the last daemon
    then serves both phases and is drained for its CPU time.  The daemon
    runs on one CPU and the client on another (the same one when there
    is only one), so the load generator never takes the daemon's CPU;
    every set-up and phase is calibrated on the daemon's CPU, and the
    daemon's CPU time is taken to the reference speed by the phases'
    mean factor."""
    warm = run.reqs[0]
    mask = os.sched_getaffinity(0)
    cpus = [min(mask)]
    cal, setups, daemons = [], [], []
    os.sched_setaffinity(0, {max(mask)})
    try:
        for _ in range(SETUPS):
            with Calibrated(cpus, cal) as c:
                t0 = time.monotonic()
                d = run.daemon(cpus)
                daemons.append(d)
                key = answer_key(run.check, warm, asyncio.run(call_once(d.sock, warm)))
                t = time.monotonic() - t0
            setups.append((t * c.factor, key))
            if len(daemons) < SETUPS:
                d.stop()
        a, lag, span_a, b, wall_b, factors = asyncio.run(
            serve_phases(run, daemons[-1].sock, seconds, cpus, cal))
        usage = daemons[-1].stop()
    finally:
        for d in daemons:
            d.kill()
        os.sched_setaffinity(0, mask)
    run.check.settle()
    a = [(lat, eng, f) for lat, eng, key, f in a if run.check.ok(key)]
    answers_b = sum(map(run.check.ok, b))
    waits = [(lat - eng) * f for lat, eng, f in a]
    engine = [eng * f for _, eng, f in a]
    return {
        "lat": [lat * f for lat, _, f in a], "answers": answers_b, "wall": wall_b,
        # the daemon's CPU is known only in total, at drain: its warm-up
        # answer and both phases
        "cpu": usage["cpu"] * statistics.fmean(factors),
        "cpu_answers": 1 + len(a) + answers_b,
        "rss_kb": max(d.usage["maxrss_kb"] for d in daemons),
        "setups": [t for t, key in setups if run.check.ok(key)],
        "cal": cal,
        "extra": {
            "serve.gen_lag_p95_s": (pct(lag, 95), "s", len(lag)),
            "serve.busy_frac": (sum(eng for _, eng, _ in a) / span_a, "ratio", len(a)),
            "serve.engine_s": (statistics.median(engine), "s", len(a)),
            "serve.wait_p50_s": (statistics.median(waits), "s", len(waits)),
            "serve.wait_p95_s": (pct(waits, 95), "s", len(waits)),
        } if waits else {},
    }


def end_to_end(run, seconds):
    """The end-to-end metrics at the reference host speed, and the
    extras: the run's host stamp (host.cal_s, the median calibration
    reading) and serve-mixed's phase A breakdown."""
    m = (measure_serve if run.workload == "serve-mixed" else measure_cli)(run, seconds)
    extra = {"host.cal_s": (statistics.median(m["cal"]), "s", len(m["cal"])),
             **m["extra"]}
    if not m["lat"] or not m["setups"]:
        return {}, extra
    lat = m["lat"]
    return {
        "latency_p50_s": (statistics.median(lat), "s", len(lat)),
        "latency_p95_s": (pct(lat, 95), "s", len(lat)),
        "answers_per_s": (m["answers"] / m["wall"], "1/s", m["answers"]),
        "cpu_s_per_answer": (m["cpu"] / m["cpu_answers"], "s", m["cpu_answers"]),
        "peak_rss_mb": (m["rss_kb"] / 1024, "MB", len(run.check.keys)),
        "setup_s": (statistics.median(m["setups"]), "s", len(m["setups"])),
    }, extra


# -- traced workloads --------------------------------------------------------


def serve_probe(run, reqs, check, budget_s):
    """Ping a fresh daemon, then send it reqs in order, one at a time and
    round again, with the serve deadline, until budget_s has passed.
    Returns the ping times and a list of (request id, latency, engine
    time, answer key)."""

    async def go(sock):
        conn = await rpc.Conn.open(sock)
        pings, answers = [], []
        try:
            for _ in range(20):
                t = time.perf_counter()
                await conn.call(rpc.request("ping"))
                pings.append(time.perf_counter() - t)
            stop = time.perf_counter() + budget_s
            for req in itertools.cycle(reqs):
                t = time.perf_counter()
                resp = await call(conn, req, W.SERVE_DEADLINE_S)
                answers.append((req["id"], time.perf_counter() - t, engine_s(resp),
                                answer_key(check, req, resp)))
                if time.perf_counter() > stop:
                    break
        finally:
            await conn.close()
        return pings, answers

    d = run.daemon()
    try:
        return asyncio.run(go(d.sock))
    finally:
        d.stop()


def replay(run, replay_s, probe_s, reqs):
    """Run layers.exe over reqs and queue every replayed answer for
    checking; returns its layers.json document, each request carrying
    its stdout under "out", or None on failure."""
    manifest = os.path.join(run.dir, "manifest.json")
    with open(manifest, "w") as f:
        json.dump({"requests": reqs}, f)
    out = os.path.join(run.dir, "replay")
    os.makedirs(out)
    p = subprocess.run([LAYERS, manifest, out, repr(replay_s), repr(probe_s)],
                       env=run.env, stderr=run.log)
    if p.returncode != 0:
        run.check.refuse("layers.exe", f"exited {p.returncode}")
        return None
    with open(os.path.join(out, "layers.json")) as f:
        doc = json.load(f)
    by_id = {r["id"]: r for r in reqs}
    for r in doc["requests"]:
        with open(os.path.join(out, f"{r['id']}.{r['pass']}.out"), "rb") as f:
            r["out"] = f.read()
        run.check.add(by_id[r["id"]], r["code"], r["out"])
    return doc


def traced(run, seconds):
    """Per-layer metrics of one workload (see README: Per-layer metrics).
    A one-shot workload replays its first round, serve-mixed every
    request.  Shares of --seconds: serve probe, untraced reference pass
    (one-shot workloads), replay, probes; each part does at least one
    request."""
    served = run.workload == "serve-mixed"
    reqs = run.reqs if served else run.rounds[0]
    starts = [shot(["mc", "-g", "path:2", "-f", "exists x. x = x"], run.log)[0]
              for _ in range(10)]
    # a served answer may differ from the one-shot one (a budgeted local
    # learn degrades), so a one-shot workload's serve probe gets a
    # checker of its own
    probe_check = run.check if served else Checker("", -1)
    pings, probe = serve_probe(run, reqs, probe_check, (0.2 if served else 0.1) * seconds)
    ref = []
    if not served:
        stop = time.perf_counter() + 0.15 * seconds
        for req in itertools.cycle(reqs):
            lat, key, _, _ = run.cli(req)
            ref.append((req["id"], lat, key))
            if time.perf_counter() > stop:
                break
    doc = replay(run, 0.3 * seconds, 0.25 * seconds, reqs)
    run.check.settle()
    probe_check.settle()
    if probe_check is not run.check:  # count its answers with the rest
        run.check.keys += probe_check.keys
        for key, verdict in probe_check.verdict.items():
            run.check.verdict.setdefault(key, verdict)
    if doc is None:
        return {}, {}, []
    served_ok = [(i, lat, eng) for i, lat, eng, key in probe if probe_check.ok(key)]
    untraced = {}
    for i, lat, *_ in (served_ok if served else
                       [r for r in ref if run.check.ok(r[2])]):
        untraced.setdefault(i, []).append(lat)
    untraced = {i: statistics.median(v) for i, v in untraced.items()}
    served_ok = [(lat, eng) for _, lat, eng in served_ok]
    return layer_metrics(run, doc, starts, pings, served_ok, untraced) + (span_table(doc),)


def layer_metrics(run, doc, starts, pings, served, untraced):
    """served: (latency, engine time) of each serve-probe answer;
    untraced: request id -> median untraced latency, for trace.gap_s."""
    reqs = {r["id"]: r for r in run.reqs}
    rs, pr = doc["requests"], doc["probes"]
    n = len(rs)

    def self_s(*names):
        return sum(r["self"].get(k, 0) for r in rs for k in names) / n / 1e9

    def count(name):
        return sum(r["counts"].get(name, 0) for r in rs) / n

    def mean(rows, key, scale=1.0):
        return sum(r[key] for r in rows) / len(rows) / scale

    def per_id(key):
        """Median over the replay passes, per request id."""
        vals = {}
        for r in rs:
            vals.setdefault(r["id"], []).append(key(r))
        return {i: statistics.median(v) for i, v in vals.items()}

    solve = per_id(lambda r: r["self"].get("core.solve", 0))
    wall = per_id(lambda r: r["wall_ns"] / 1e9)
    ctr = [dict(c["counts"], id=c["id"]) for c in pr["counters"]]
    tp_ns = {t["id"]: t["ns"] for t in pr["tp"]}
    tp_calls = sum(c["tp_calls"] for c in ctr)
    frames = {f["id"]: f for f in pr["frame"]}
    frame_ns = [frames[r["id"]]["ns"] if r["id"] in frames else r["self"]["serve.frame"]
                for r in rs]
    frame_bytes = [frames[r["id"]]["bytes"] if r["id"] in frames
                   else r["counts"]["response_bytes"] for r in rs]
    paired = pr["paired"]
    rounds = paired["rounds"]
    waits = [lat - eng for lat, eng in served]
    both = [i for i in untraced if i in wall]
    layer = {
        "cgraph.load_s": (self_s("cgraph.load"), "s", n),
        "cgraph.ball_s": (mean(pr["ball"], "ns", 1e9), "s", len(pr["ball"])),
        "cgraph.ball_calls": (mean(pr["ball"], "calls"), "count", len(pr["ball"])),
        "cgraph.ball_vertices": (sum(b["vertices"] for b in pr["ball"])
                                 / max(1, sum(b["calls"] for b in pr["ball"])),
                                 "count", len(pr["ball"])),
        "fo.parse_s": (self_s("fo.parse"), "s", n),
        "analysis.check_s": (self_s("analysis.check"), "s", n),
        "analysis.plan_s": (mean(pr["plan"], "ns", 1e9), "s", len(pr["plan"])),
        "modelcheck.label_s": (self_s("modelcheck.label"), "s", n),
        "modelcheck.eval_s": (self_s("modelcheck.label", "modelcheck.eval"), "s", n),
        "modelcheck.tp_s": (mean(pr["tp"], "ns", 1e9), "s", len(pr["tp"])),
        "modelcheck.tp_calls": (tp_calls / len(ctr), "count", len(ctr)),
        "modelcheck.tp_ns": (sum(tp_ns.get(c["id"], 0) for c in ctr) / max(1, tp_calls),
                             "ns", len(ctr)),
        "modelcheck.intern_live": (doc["intern"]["live"], "count", n),
        "modelcheck.intern_bytes": (doc["intern"]["bytes"], "bytes", n),
        "core.solve_s": (self_s("core.solve", "core.reduction", "modelcheck.types",
                                "modelcheck.eval", "splitter.game"), "s", n),
        "core.sweep_self_s": (sum(t["solve_ns"] - t["ns"] for t in pr["tp"])
                              / len(pr["tp"]) / 1e9, "s", len(pr["tp"])),
        "core.candidates": (mean(ctr, "candidates"), "count", len(ctr)),
        "core.render_s": (self_s("core.render"), "s", n),
        "core.render_bytes": (sum(len(r["out"]) for r in rs) / n, "bytes", n),
        "core.nd_rounds": (count("nd_rounds"), "count", n),
        "core.nd_branches": (count("nd_branches"), "count", n),
        "core.reduction_calls": (count("reduction_calls"), "count", n),
        "par.speedup_2": (paired["jobs1_ns"] / paired["jobs2_ns"], "ratio", rounds),
        "par.cpu_util": (paired["jobs2_cpu_s"] / (paired["jobs2_ns"] / 1e9), "ratio", rounds),
        "guard.fuel": (mean(ctr, "fuel"), "count", len(ctr)),
        "guard.overhead_frac": (paired["guard_on_ns"] / paired["jobs1_ns"] - 1,
                                "ratio", rounds),
        "obs.overhead_frac": (paired["sink_on_ns"] / paired["jobs1_ns"] - 1, "ratio",
                              rounds),
        "resil.writes": (count("resil_writes"), "count", n),
        "resil.write_s": (statistics.median(pr["resil_write_ns"]) / 1e9, "s",
                          len(pr["resil_write_ns"])),
        "serve.frame_s": (sum(frame_ns) / n / 1e9, "s", n),
        "serve.response_bytes": (sum(frame_bytes) / n, "bytes", n),
        "serve.ping_rtt_s": (statistics.median(pings), "s", len(pings)),
        "serve.engine_s": (statistics.median(eng for _, eng in served), "s",
                           len(served)),
        "serve.wait_p50_s": (statistics.median(waits), "s", len(waits)),
        "serve.wait_p95_s": (pct(waits, 95), "s", len(waits)),
        "process.start_s": (statistics.median(starts), "s", len(starts)),
        "trace.other_frac": (sum(r["self"].get("other", 0) for r in rs)
                             / sum(r["wall_ns"] for r in rs), "ratio", n),
        "trace.gap_s": (statistics.median(untraced[i] for i in both)
                        - statistics.median(wall[i] for i in both), "s", len(both)),
    }

    # Prop 11 shape check: f(q) m n^(l+c) with m = n is about n^4 here
    extra = {}
    brute = sorted(i for i in solve if reqs[i]["params"].get("solver") == "brute"
                   and not reqs[i]["served"])
    if len({reqs[i]["n"] for i in brute}) > 1:
        extra["core.brute_n_exponent"] = (
            slope([reqs[i]["n"] for i in brute], [solve[i] for i in brute]),
            "slope", len(brute))
        cb = [c for c in ctr if c["id"] in brute]
        if len({reqs[c["id"]]["n"] for c in cb}) > 1:
            extra["core.brute_n_exponent_tp"] = (
                slope([reqs[c["id"]]["n"] for c in cb], [c["tp_calls"] for c in cb]),
                "slope", len(cb))
    return layer, extra


def span_table(doc):
    """(self s per request, share of traced request time, span name),
    largest first; the shares sum to one."""
    rs = doc["requests"]
    total = sum(r["wall_ns"] for r in rs)
    spans = {}
    for r in rs:
        for k, v in r["self"].items():
            spans[k] = spans.get(k, 0) + v
    return sorted(((v / len(rs) / 1e9, v / total, k) for k, v in spans.items()),
                  reverse=True)


# -- reporting ---------------------------------------------------------------


def print_metrics(workload, metrics):
    for name, (value, unit, count) in metrics.items():
        print(f"{name} {workload} {value:.6g} {unit} (n={count})")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    })


def save_result(record, run):
    """Write the record (and a traced run's Chrome trace beside it)."""
    d = os.path.join(BUILD, "results")
    os.makedirs(d, exist_ok=True)
    base = os.path.join(d, "{workload}-s{seed}-{mode}-{stamp}-{pid}".format(
        stamp=time.strftime("%Y%m%dT%H%M%S"), pid=os.getpid(),
        mode="trace" if record["trace"] else "e2e", **record))
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1)
    trace = os.path.join(run.dir, "replay", "trace.json")
    if os.path.exists(trace):
        shutil.move(trace, base + ".trace.json")
    return base + ".json"


def run_one(workload, args, env, stamp):
    run = Run(workload, args.seed, env)
    try:
        if run.check.golden is None:
            print(f"note: seed {args.seed} has no golden digests; checking exit "
                  "codes, semantic validators and repeat agreement only")
        if args.trace:
            metrics, extra, table = traced(run, args.seconds)
            print(f"# {workload}: self time per request, by span")
            for per_req, share, name in table:
                print(f"#   {name:<20} {per_req:10.6f} s  {100 * share:5.1f}%")
        else:
            metrics, extra = end_to_end(run, args.seconds)
        failures = run.check.failures()
        attempted = max(1, len(run.check.keys))
        extra["fail_frac"] = (len(failures) / attempted, "ratio", attempted)
        print_metrics(workload, metrics)
        print_metrics(workload, extra)
        if "core.brute_n_exponent_tp" in extra:
            a = extra["core.brute_n_exponent"][0]
            b = extra["core.brute_n_exponent_tp"][0]
            if abs(a - b) > 0.5:
                print(f"warning: {workload}: time exponent {a:.2f} and tp-call "
                      f"exponent {b:.2f} differ by more than 0.5")
        for f in sorted(set(failures)):
            print(f"FAIL {workload} {f} (x{failures.count(f)})")
        record = dict(stamp, workload=workload, seed=args.seed, trace=bool(args.trace),
                      seconds=args.seconds, attempted=attempted, failed=len(failures),
                      failures=sorted(set(failures)),
                      metrics={k: {"value": v, "unit": u, "n": c}
                               for k, (v, u, c) in {**metrics, **extra}.items()})
        print(f"# results: {save_result(record, run)}")
        return not failures and bool(metrics), attempted, len(failures), metrics
    finally:
        run.close()


# -- smoke and golden --------------------------------------------------------


def smoke(env):
    """One request per workload through the program and through the
    traced replay (without its probes), with every check and no timing."""
    attempted = failed = 0
    for workload in W.WORKLOADS:
        run = Run(workload, 1, env)
        try:
            req = run.reqs[0]
            if req["served"]:
                d = run.daemon()
                try:
                    answer_key(run.check, req, asyncio.run(call_once(d.sock, req)))
                finally:
                    d.stop()
            else:
                run.cli(req)
            replay(run, 0.0, 0.0, [req])
            run.check.settle()
            failures = run.check.failures()
            attempted += len(run.check.keys)
            failed += len(failures)
            print(f"smoke {workload}: {'FAIL' if failures else 'ok'}")
            for f in failures:
                print(f"FAIL {workload} {f}")
        finally:
            run.close()
    print(result_line(failed == 0, attempted, failed, {}))
    return 0 if failed == 0 else 1


def record_golden(seeds, env):
    for seed in seeds:
        doc = {}
        for workload in W.WORKLOADS:
            run = Run(workload, seed, env)
            try:
                doc[workload] = {}
                for req in run.reqs:
                    _, code, out, _, _ = shot(W.cli_argv(req, run.ckpt), run.log)
                    err = W.validate(req, code, out)
                    if err:
                        die(f"seed {seed} {req['id']}: {err}; not recording")
                    doc[workload][req["id"]] = {
                        "sha256": hashlib.sha256(W.canonical(out)).hexdigest(),
                        "code": code,
                    }
                    if os.path.exists(run.ckpt):
                        os.remove(run.ckpt)
            finally:
                run.close()
        os.makedirs(GOLDEN, exist_ok=True)
        path = os.path.join(GOLDEN, f"seed-{seed}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


# -- main --------------------------------------------------------------------


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            default_seconds = json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        default_seconds = 20
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=None, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=default_seconds,
                    help="timed work per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                    help="replay through layers.exe and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="one request per workload, every check, no timing")
    ap.add_argument("--record-golden", action="store_true",
                    help="write golden/seed-N.json (seeds 1-3 unless --seed)")
    args = ap.parse_args()
    os.chdir(ROOT)
    for need in ("dune-project", "bin/folearn_cli.ml", "lib"):
        if not os.path.exists(need):
            die(f"no {need} here: run from the root of a folearn source tree")
    env = child_env()
    build(env)
    global SPAWN
    SPAWN = spawn.Spawner(env)
    try:
        return dispatch(args, env)
    finally:
        SPAWN.close()


def dispatch(args, env):
    if args.record_golden:
        return record_golden([args.seed] if args.seed is not None else [1, 2, 3], env)
    if args.smoke:
        return smoke(env)
    if args.seed is None:
        args.seed = 1
    stamp = {"host": host_stamp(env), "commit": commit_stamp()}
    ok, attempted, failed, metrics = True, 0, 0, {}
    chosen = [args.workload] if args.workload else W.WORKLOADS
    for workload in chosen:
        w_ok, w_att, w_fail, w_metrics = run_one(workload, args, env, stamp)
        ok, attempted, failed = ok and w_ok, attempted + w_att, failed + w_fail
        if len(chosen) == 1:
            metrics = w_metrics
        else:
            metrics.update({f"{workload}/{k}": v for k, v in w_metrics.items()})
    print(result_line(ok, attempted, failed, metrics))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
