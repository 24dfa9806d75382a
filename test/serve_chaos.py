#!/usr/bin/env python3
"""Chaos harness for folserve, the resident learning service.

Scenarios (all run by default):

  identity     a learn/mc/game through the server is byte-identical to
               the one-shot CLI, at --jobs 1 and --jobs 4, including a
               salvaged (exit 3) and an exhausted (exit 4) learn and
               usage errors (exit 2, the CLI's message on stderr)
  admission    an over-budget request is refused `rejected` with
               reason would_exhaust before any fuel burns, visible in
               the live /metrics counters
  overload     a saturated bounded queue sheds requests with a
               retryable `overloaded` (exit 75) answer
  disconnect   half-frames and clients that vanish mid-response leave
               the server serving (SIGPIPE/EPIPE regression)
  kill_resume  SIGKILL the server mid-job; a restarted server resumes
               the job from its snapshot and the polled result is
               byte-identical to an uninterrupted run
  drain        SIGTERM under load: in-flight work completes, /healthz
               answers 503 draining, new work is refused, exit 0

Run from the repo root:
    python3 test/serve_chaos.py --binary _build/default/bin/folearn_cli.exe
"""

import argparse
import json
import os
import re
import shlex
import signal
import socket
import subprocess
import sys
import tempfile
import time
import zlib

MAGIC = b"FOLEARNRPC1"
EXIT_RETRY = 75

# a q = 2 brute learn whose hypothesis is ~0.5 MB (about 0.04 s on a
# 2-vCPU host): the request the identity and admission legs pin
SHORT_LEARN = [
    "-g", "cycle:24", "--color", "Red=0,3,6,9",
    "--target", "exists y. (E(x1,y) & Red(y))",
    "-k", "1", "-l", "1", "-q", "2", "--solver", "brute",
]
# ~0.5 s of engine time on a 2-vCPU host: slow enough that a stampede
# stacks up in a queue of one
OVERLOAD_LEARN = [
    "-g", "cycle:72", "--color", "Red=0,3,6,9",
    "--target", "exists y. (E(x1,y) & Red(y))",
    "-k", "1", "-l", "1", "-q", "2", "--solver", "brute",
]
# ~2.5 s on a 2-vCPU host: long enough that SIGKILL lands
# mid-enumeration after the first 0.5 s-cadence snapshot, and that the
# request is still on the engine when drain sends SIGTERM at 0.8 s
LONG_LEARN = [
    "-g", "cycle:128", "--color", "Red=0,3,6,9",
    "--target", "exists y. (E(x1,y) & Red(y))",
    "-k", "1", "-l", "1", "-q", "2", "--solver", "brute",
]


# golden rows of test/corpus/ops replayed verbatim through the server,
# with whether the row spends a fuel budget: at more than one domain a
# fuel budget settles a schedule-dependent number of candidates, so
# those rows are compared on the one-domain server only.  The counting
# row runs after the brute learns above, in the same daemon: counting
# and plain types share one registry, and its output must not depend on
# the ids the brute requests interned first.  The usage rows must also
# print the CLI's message on stderr.
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "corpus", "ops")
IDENTITY_ROWS = [
    ("game", False),
    ("learn_fuel_salvaged", True),
    ("learn_ball_cap_exhausted", False),
    ("learn_counting", False),
    ("usage_bad_formula", False),
    ("usage_learn_ell_negative", False),
    ("usage_mc_not_sentence", False),
]


def golden_row(name):
    """(op, args, pinned exit code) of a golden row, with --jobs dropped."""
    with open(os.path.join(GOLDEN_DIR, name + ".expected")) as f:
        argv = shlex.split(f.readline()[len("$ "):])
        code = int(f.readline().split()[1])
    args = []
    rest = iter(argv[1:])
    for a in rest:
        if a == "--jobs":
            next(rest)
        else:
            args.append(a)
    return argv[0], args, code


_TIMING = re.compile(r"[0-9]+\.[0-9]+ s[,)]")


def untimed(stderr):
    """stderr without the lines that carry a timing field, as the ops
    golden matrix pins it."""
    return [line for line in stderr.splitlines() if not _TIMING.search(line)]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout=120, env=None):
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout, env=env
    )


class Server:
    """One folearn serve process on a unix socket."""

    def __init__(self, binary, tmpdir, name, jobs=1, queue_cap=32,
                 metrics=False, tenants=(), env=None):
        self.sock = os.path.join(tmpdir, f"{name}.sock")
        self.metrics_sock = os.path.join(tmpdir, f"{name}.metrics.sock")
        self.job_dir = os.path.join(tmpdir, f"{name}-jobs")
        self.log_path = os.path.join(tmpdir, f"{name}.log")
        cmd = [
            binary, "serve",
            "--listen", f"unix:{self.sock}",
            "--job-dir", self.job_dir,
            "--jobs", str(jobs),
            "--queue-cap", str(queue_cap),
        ]
        if metrics:
            cmd += ["--metrics-addr", f"unix:{self.metrics_sock}"]
        for t in tenants:
            cmd += ["--tenant", t]
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env
        )
        self.wait_ready()

    def wait_ready(self, timeout=10.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.proc.poll() is not None:
                with open(self.log_path) as f:
                    fail(f"server died at startup:\n{f.read()}")
            try:
                with open(self.log_path) as f:
                    if "listening on" in f.read():
                        return
            except FileNotFoundError:
                pass
            time.sleep(0.05)
        fail("server never reported listening")

    def sigkill(self):
        self.proc.kill()
        self.proc.wait()
        self.log.close()

    def sigterm_wait(self, timeout=60):
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=timeout)
        self.log.close()
        return rc

    def scrape_metrics(self):
        return http_get(self.metrics_sock, "/metrics").split(b"\r\n\r\n", 1)[1]


def http_get(sock_path, path):
    """Raw HTTP/1.0 GET over a unix socket; returns the whole response."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10.0)
        s.connect(sock_path)
        s.sendall(f"GET {path} HTTP/1.0\r\nHost: folearn\r\n\r\n".encode())
        chunks = []
        while True:
            got = s.recv(65536)
            if not got:
                break
            chunks.append(got)
    return b"".join(chunks)


def counter(metrics_text, name):
    total = 0
    found = False
    for line in metrics_text.decode().splitlines():
        if line.startswith(name + " ") or line.startswith(name + "_total "):
            total += float(line.split()[-1])
            found = True
    return total if found else None


def encode_frame(doc):
    body = json.dumps(doc).encode()
    return (
        MAGIC
        + b" %08x %d\n" % (zlib.crc32(body) & 0xFFFFFFFF, len(body))
        + body
        + b"\n"
    )


def call(binary, server, op, extra, retries=0):
    return run(
        [binary, "call", op, "--connect", f"unix:{server.sock}",
         "--retries", str(retries)] + extra
    )


# ------------------------------------------------------------------ #
# scenarios                                                           #
# ------------------------------------------------------------------ #

def scenario_identity(binary, tmpdir):
    for jobs in (1, 4):
        ref = run([binary, "learn", "--jobs", str(jobs)] + SHORT_LEARN)
        if ref.returncode != 0:
            fail(f"reference learn failed (jobs {jobs}): {ref.stderr}")
        srv = Server(binary, tmpdir, f"ident{jobs}", jobs=jobs)
        try:
            got = call(binary, srv, "learn", SHORT_LEARN)
            if got.returncode != 0:
                fail(f"served learn failed (jobs {jobs}): {got.stderr}")
            if got.stdout != ref.stdout:
                fail(f"served learn stdout differs from CLI at jobs {jobs}")
            if got.stderr != ref.stderr:
                fail(f"served learn stderr differs from CLI at jobs {jobs}")
            # a second, warm request must agree too
            warm = call(binary, srv, "learn", SHORT_LEARN)
            if warm.stdout != ref.stdout:
                fail(f"warm served learn diverged at jobs {jobs}")
            mc_args = ["-g", "cycle:24", "--color", "Red=0,3,6,9",
                       "--formula", "exists x1. Red(x1)"]
            ref_mc = run([binary, "mc"] + mc_args)
            got_mc = call(binary, srv, "mc", mc_args)
            if got_mc.stdout != ref_mc.stdout or \
               got_mc.returncode != ref_mc.returncode:
                fail(f"served mc diverged at jobs {jobs}")
            for name, fuel_row in IDENTITY_ROWS:
                if fuel_row and jobs != 1:
                    continue
                op, args, code = golden_row(name)
                ref_row = run([binary, op, "--jobs", str(jobs)] + args)
                if ref_row.returncode != code:
                    fail(f"reference {name} exited {ref_row.returncode}, "
                         f"golden pins {code} (jobs {jobs})")
                got_row = call(binary, srv, op, args)
                if got_row.stdout != ref_row.stdout or \
                   got_row.returncode != ref_row.returncode:
                    fail(f"served {name} diverged at jobs {jobs}: exit "
                         f"{got_row.returncode} vs {ref_row.returncode}")
                if name.startswith("usage_") and \
                   untimed(got_row.stderr) != untimed(ref_row.stderr):
                    fail(f"served {name} stderr differs from the CLI at "
                         f"jobs {jobs}: {got_row.stderr!r} vs "
                         f"{ref_row.stderr!r}")
        finally:
            if srv.sigterm_wait() != 0:
                fail(f"identity server did not drain cleanly (jobs {jobs})")
    print("ok identity: served learn/mc/game, exit-3/exit-4 learns and "
          "usage errors byte-identical at jobs 1 and 4")


def scenario_admission(binary, tmpdir):
    srv = Server(binary, tmpdir, "admission", metrics=True,
                 tenants=["stingy:fuel=3"])
    try:
        # a budget provably below the first-settle floor: refused
        r = call(binary, srv, "learn", SHORT_LEARN + ["--fuel", "2"])
        if r.returncode != 4:
            fail(f"over-budget call must exit 4, got {r.returncode}")
        if "exhaust" not in r.stderr:
            fail(f"rejection must name the exhaustion: {r.stderr!r}")
        # and prints what the one-shot CLI prints before refusing
        ref = run([binary, "learn"] + SHORT_LEARN + ["--fuel", "2"])
        if ref.returncode != 4 or r.stdout != ref.stdout:
            fail(f"refused call printed {r.stdout!r}, the CLI "
                 f"{ref.stdout!r} (exit {ref.returncode})")
        # a tenant quota clamps an unlimited ask down to rejection
        r = call(binary, srv, "learn",
                 SHORT_LEARN + ["--tenant", "stingy"])
        if r.returncode != 4:
            fail(f"quota-clamped call must exit 4, got {r.returncode}")
        m = srv.scrape_metrics()
        rejected = counter(m, "folearn_serve_rejected")
        completed = counter(m, "folearn_serve_completed") or 0
        plan_rej = counter(m, "folearn_plan_precheck_rejections")
        if not rejected or rejected < 2:
            fail(f"serve_rejected must count both refusals, got {rejected}")
        if completed != 0:
            fail("nothing should have completed: rejection precedes work")
        if not plan_rej:
            fail("planner rejection counter must tick")
        # fuel-spend counters must stay untouched by rejected requests
        for name in ("folearn_erm_hypotheses_enumerated",
                     "folearn_erm_consistency_checks"):
            burned = counter(m, name)
            if burned:
                fail(f"rejected request burned fuel: {name}={burned}")
    finally:
        if srv.sigterm_wait() != 0:
            fail("admission server did not drain cleanly")
    print("ok admission: would_exhaust refusals before any fuel, counted")


def scenario_overload(binary, tmpdir):
    srv = Server(binary, tmpdir, "overload", queue_cap=1, metrics=True)
    try:
        procs = [
            subprocess.Popen(
                [binary, "call", "learn", "--connect", f"unix:{srv.sock}",
                 "--retries", "0"] + OVERLOAD_LEARN,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(6)
        ]
        for p in procs:  # drain pipes: the hypothesis is ~0.5 MB
            p.communicate(timeout=120)
        codes = [p.returncode for p in procs]
        if 0 not in codes:
            fail(f"no request survived the stampede: {codes}")
        if EXIT_RETRY not in codes:
            fail(f"a saturated queue must shed with exit {EXIT_RETRY}: {codes}")
        m = srv.scrape_metrics()
        shed = (counter(m, "folearn_serve_shed") or 0) + \
               (counter(m, "folearn_serve_overloaded") or 0)
        if shed < 1:
            fail("shed/overloaded counters must tick under saturation")
        # a retrying client eventually gets through
        r = call(binary, srv, "learn", OVERLOAD_LEARN, retries=5)
        if r.returncode != 0:
            fail(f"retries must eventually land: {r.returncode} {r.stderr}")
    finally:
        if srv.sigterm_wait() != 0:
            fail("overload server did not drain cleanly")
    print("ok overload: saturation sheds retryably, retries recover")


def scenario_disconnect(binary, tmpdir):
    srv = Server(binary, tmpdir, "disconnect", metrics=True)
    try:
        # half a frame, then gone
        frame = encode_frame({"schema_version": 1, "op": "ping"})
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(srv.sock)
            s.sendall(frame[: len(frame) // 2])
        # a full request whose reader vanishes before the (large)
        # response is written: the server eats EPIPE and keeps going
        req = encode_frame({
            "schema_version": 1, "op": "learn",
            "params": {
                "graph": "cycle:24", "colors": ["Red=0,3,6,9"],
                "target": "exists y. (E(x1,y) & Red(y))",
                "k": 1, "ell": 1, "q": 2, "solver": "brute",
            },
        })
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(srv.sock)
            s.sendall(req)
        time.sleep(1.5)  # let the engine finish and hit the dead socket
        # pure garbage
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(srv.sock)
            s.sendall(b"GET / HTTP/1.0\r\n\r\n")
            s.recv(65536)
        r = call(binary, srv, "ping", [])
        if r.returncode != 0:
            fail(f"server stopped serving after rude clients: {r.stderr}")
        r = call(binary, srv, "learn", SHORT_LEARN)
        if r.returncode != 0:
            fail("server lost the engine after a mid-write disconnect")
    finally:
        if srv.sigterm_wait() != 0:
            fail("disconnect server did not drain cleanly")
    print("ok disconnect: half-frames and dead readers leave the server up")


def wait_snapshot(job_dir, timeout=20.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if any(f.endswith(".snap") for f in
               (os.listdir(job_dir) if os.path.isdir(job_dir) else [])):
            return
        time.sleep(0.05)
    fail("job never wrote a snapshot")


def scenario_kill_resume(binary, tmpdir):
    ref = run([binary, "learn"] + LONG_LEARN)
    if ref.returncode != 0:
        fail(f"reference long learn failed: {ref.stderr}")

    srv = Server(binary, tmpdir, "kr")
    sub = run([binary, "submit", "--connect", f"unix:{srv.sock}"] + LONG_LEARN)
    if sub.returncode != 0:
        fail(f"submit failed: {sub.stderr}")
    job_id = sub.stdout.split()[3]  # "folearn submit: job <id> <status>"
    wait_snapshot(srv.job_dir)
    srv.sigkill()

    with open(os.path.join(srv.job_dir, "jobs.json")) as f:
        table = json.load(f)
    [entry] = table["jobs"]
    if entry["status"] not in ("queued", "running"):
        fail(f"SIGKILL landed too late to test resume: {entry['status']}")

    # a fresh incarnation on the same --job-dir resumes and finishes
    srv3 = Server(binary, tmpdir, "kr", metrics=True)
    try:
        poll = run([binary, "poll", job_id, "--connect", f"unix:{srv3.sock}",
                    "--wait", "60"])
        if poll.returncode != 0:
            fail(f"resumed job failed: {poll.returncode} {poll.stderr}")
        if poll.stdout != ref.stdout:
            fail("resumed job output differs from the uninterrupted run")
        m = srv3.scrape_metrics()
        if not counter(m, "folearn_serve_jobs_resumed"):
            fail("jobs_resumed must tick after a restart")
        # resubmitting the same work is idempotent: same id, still done
        again = run([binary, "submit", "--connect", f"unix:{srv3.sock}"]
                    + LONG_LEARN)
        if job_id not in again.stdout:
            fail("resubmit must return the same job id")
        with open(os.path.join(srv3.job_dir, "jobs.json")) as f:
            jobs = json.load(f)["jobs"]
        if len(jobs) != 1 or jobs[0]["status"] != "done":
            fail("resubmit must not duplicate or rerun a settled job")
        # a stale/foreign id gets the structured mismatch, not garbage
        stale = run([binary, "poll", "0" * 32,
                     "--connect", f"unix:{srv3.sock}"])
        if stale.returncode != 2:
            fail(f"stale poll must be a usage error, got {stale.returncode}")
    finally:
        if srv3.sigterm_wait() != 0:
            fail("kill_resume server did not drain cleanly")
    print("ok kill_resume: SIGKILL mid-job, restart resumes bit-identically")


def scenario_drain(binary, tmpdir):
    ref = run([binary, "learn"] + LONG_LEARN)
    env = dict(os.environ, FOLEARN_DRAIN_GRACE="1.5")
    srv = Server(binary, tmpdir, "drain", metrics=True, env=env)
    inflight = subprocess.Popen(
        [binary, "call", "learn", "--connect", f"unix:{srv.sock}"]
        + LONG_LEARN,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(0.8)  # request is on the engine now
    srv.proc.send_signal(signal.SIGTERM)
    time.sleep(0.3)
    healthz = http_get(srv.metrics_sock, "/healthz")
    healthz_path = os.path.join(tmpdir, "healthz.raw")
    with open(healthz_path, "wb") as f:
        f.write(healthz)
    check = run([sys.executable,
                 os.path.join(os.path.dirname(__file__),
                              "check_prometheus.py"),
                 "--healthz", healthz_path, "--expect-draining"])
    if check.returncode != 0:
        fail(f"healthz during drain: {check.stdout}{check.stderr}")
    out, err = inflight.communicate(timeout=60)
    if inflight.returncode != 0:
        fail(f"in-flight request must complete through a drain: {err}")
    if out != ref.stdout:
        fail("drained in-flight output differs from the one-shot CLI")
    rc = srv.proc.wait(timeout=60)
    srv.log.close()
    if rc != 0:
        fail(f"drained server must exit 0, got {rc}")
    # the socket is gone: new work is refused, not hung
    late = run([binary, "call", "ping", "--connect", f"unix:{srv.sock}"],
               timeout=30)
    if late.returncode == 0:
        fail("a drained server must not accept new work")
    print("ok drain: in-flight completed, healthz 503-draining, exit 0")


SCENARIOS = {
    "identity": scenario_identity,
    "admission": scenario_admission,
    "overload": scenario_overload,
    "disconnect": scenario_disconnect,
    "kill_resume": scenario_kill_resume,
    "drain": scenario_drain,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--binary", default="_build/default/bin/folearn_cli.exe"
    )
    ap.add_argument(
        "--scenarios", default=",".join(SCENARIOS),
        help="comma-separated subset of: " + ", ".join(SCENARIOS),
    )
    args = ap.parse_args()
    binary = os.path.abspath(args.binary)
    if not os.path.exists(binary):
        fail(f"binary not found: {binary} (dune build first)")
    names = [s for s in args.scenarios.split(",") if s]
    for name in names:
        if name not in SCENARIOS:
            fail(f"unknown scenario {name!r}")
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"folserve-{name}-") as td:
            SCENARIOS[name](binary, td)
    print(f"serve chaos: all {len(names)} scenarios passed")


if __name__ == "__main__":
    main()
