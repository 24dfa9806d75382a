#!/usr/bin/env python3
"""Kill-anywhere determinism harness for folearn's checkpoint/resume.

For each ERM solver, the harness:

  1. runs a reference `folearn learn --checkpoint` to completion and
     records its stdout and exit code;
  2. repeatedly starts the same command with `--checkpoint SNAP
     --resume SNAP`, SIGKILLs it at a seeded-random point, validates
     the surviving snapshot file, and resumes;
  3. asserts that the run that finally completes produced stdout
     byte-identical to the reference and the same exit code.

A snapshot file is two 4 KiB slots, each a zero-padded frame (magic,
CRC and decimal length fields, body, terminator; the body's zlib CRC)
or blank.  Write number w overwrites slot w mod 2 in place, so a kill
can tear only the slot being written: after every kill at least one
slot must hold a valid frame (once a first snapshot was written), and
the newest valid frame's cursor must never move backward.

`--sigint` instead starts one long checkpointed run, delivers SIGINT,
and asserts graceful shutdown: exit code 3, an "interrupted" report on
stderr, and a loadable snapshot.

CI runs this at --jobs 1 and --jobs 4.  No third-party dependencies.
"""

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import zlib

MAGIC = b"FOLEARNSNAP2"
SLOT = 4096

# Workloads sized so a reference run takes roughly 0.3-1.5 s: long
# enough that SIGKILL usually lands mid-enumeration, short enough for
# dozens of kill/resume cycles per solver.
SOLVERS = {
    "brute": [
        "-g", "cycle:24", "--color", "Red=0,3,6,9",
        "-t", "exists y. (E(x1,y) & Red(y))",
        "-k", "1", "-l", "1", "-q", "2", "--solver", "brute",
    ],
    "counting": [
        "-g", "cycle:28", "--color", "Red=0,3,6,9",
        "-t", "exists y. (E(x1,y) & Red(y))",
        "-k", "1", "-l", "1", "-q", "2", "--solver", "counting",
        "--tmax", "2",
    ],
    "local": [
        "-g", "grid:6x5", "--color", "Red=0,3,6,9",
        "-t", "exists y. (E(x1,y) & Red(y))",
        "-k", "1", "-l", "1", "-q", "2", "--solver", "local",
    ],
    "nd": [
        "-g", "tree:120:7", "--color", "Red=0,3,6,9,12",
        "-t", "exists y. (E(x1,y) & Red(y))",
        "-k", "1", "-l", "1", "-q", "1", "--solver", "nd",
        "--noise", "0.2", "--seed", "5",
    ],
}

MAX_CYCLES = 20


def fail(msg):
    print(f"crash_recovery: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def decode_slot(raw):
    """Check one slot against the rules of lib/resil's Framed codec:
    the decoded body, or the reason the slot holds no valid frame."""
    header, _, body = raw.partition(b"\n")
    fields = header.split(b" ")
    if len(fields) != 3 or fields[0] != MAGIC:
        return None, f"bad header {header[:40]!r}"
    crc_hex, length_s = fields[1], fields[2]
    hex_digits = b"0123456789abcdefABCDEF"
    if len(crc_hex) != 8 or not all(c in hex_digits for c in crc_hex):
        return None, f"bad CRC field {crc_hex!r}"
    if not (1 <= len(length_s) <= 18 and length_s.isdigit()):
        return None, f"bad length field {length_s!r}"
    length = int(length_s)
    if len(body) < length + 1:
        return None, f"truncated body ({len(body)} < {length + 1})"
    if body[length:length + 1] != b"\n":
        return None, "missing terminator after the body"
    body = body[:length]
    if zlib.crc32(body) & 0xFFFFFFFF != int(crc_hex, 16):
        return None, "CRC mismatch"
    return json.loads(body), None


def load_snapshot(path):
    """The newest valid slot's body (the higher "writes"); fail when
    neither slot holds a valid frame."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) > 2 * SLOT:
        fail(f"{path}: {len(raw)} bytes, more than two slots")
    slots = [decode_slot(raw[i * SLOT:(i + 1) * SLOT]) for i in (0, 1)]
    valid = [body for body, _ in slots if body is not None]
    if not valid:
        fail(f"{path}: no valid slot ({'; '.join(e for _, e in slots)})")
    return max(valid, key=lambda body: body["writes"])


def run_to_completion(cmd, timeout=120):
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout
    )
    return proc.returncode, proc.stdout, proc.stderr


def kill_resume_cycle(name, base_cmd, jobs, rng, tmpdir):
    snap = os.path.join(tmpdir, f"{name}.snap")
    jobs_args = ["--jobs", str(jobs)]

    # reference: one uninterrupted checkpointed run
    ref_snap = os.path.join(tmpdir, f"{name}.ref.snap")
    t0 = time.monotonic()
    ref_code, ref_out, ref_err = run_to_completion(
        base_cmd + jobs_args + ["--checkpoint", ref_snap, "--checkpoint-every", "1"]
    )
    ref_secs = time.monotonic() - t0
    if ref_code != 0:
        fail(f"{name}: reference run exited {ref_code}: {ref_err.decode()}")
    ref = load_snapshot(ref_snap)
    if not ref["complete"]:
        fail(f"{name}: reference snapshot not marked complete")
    print(
        f"  {name}: reference {ref_secs:.2f}s, exit 0, "
        f"final cursor {ref['cursor']}"
    )

    cmd = base_cmd + jobs_args + [
        "--checkpoint", snap, "--checkpoint-every", "1", "--resume", snap,
    ]
    kills = 0
    newest = None  # cursor of the newest snapshot seen after a kill
    for cycle in range(MAX_CYCLES):
        # the last permitted cycle runs to completion unconditionally
        last = cycle == MAX_CYCLES - 1
        delay = rng.uniform(0.03, max(0.06, ref_secs * 0.8))
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=None if last else delay)
        except subprocess.TimeoutExpired:
            proc.kill()  # SIGKILL: no handler runs, no final flush
            proc.communicate()
            kills += 1
            # a kill before the first write may leave no file, or the
            # empty file of a fresh run's first open; after that a slot
            # always survives
            if newest is not None or (
                os.path.exists(snap) and os.path.getsize(snap) > 0
            ):
                cursor = load_snapshot(snap)["cursor"]
                if newest is not None and cursor < newest:
                    fail(
                        f"{name}: newest cursor moved back from {newest} "
                        f"to {cursor} after a kill"
                    )
                newest = cursor
            continue
        if proc.returncode != ref_code:
            fail(
                f"{name}: resumed run exited {proc.returncode}, "
                f"reference exited {ref_code}: {err.decode()}"
            )
        if out != ref_out:
            fail(
                f"{name}: resumed stdout differs from reference\n"
                f"--- reference ---\n{ref_out.decode()}\n"
                f"--- resumed ---\n{out.decode()}"
            )
        final = load_snapshot(snap)
        if not final["complete"]:
            fail(f"{name}: final snapshot not marked complete")
        resumed_note = b"resuming from" in err
        print(
            f"  {name}: OK after {kills} SIGKILLs "
            f"({'resumed' if resumed_note else 'uninterrupted'} final run, "
            f"cursor {final['cursor']})"
        )
        return
    fail(f"{name}: no run completed within {MAX_CYCLES} cycles")


def sigint_smoke(binary, jobs, tmpdir):
    """SIGINT must flush a loadable snapshot and exit 3."""
    snap = os.path.join(tmpdir, "sigint.snap")
    # a galactic instance that cannot finish before the signal
    cmd = [
        binary, "learn", "-g", "cycle:60", "--color", "Red=0,3,6,9",
        "-t", "exists y. (E(x1,y) & Red(y))",
        "-k", "1", "-l", "2", "-q", "2", "--solver", "brute",
        "--jobs", str(jobs),
        "--checkpoint", snap, "--checkpoint-every", "1",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    time.sleep(1.0)
    proc.send_signal(signal.SIGINT)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("sigint: run did not stop within 30s of SIGINT")
    if proc.returncode != 3:
        fail(f"sigint: expected exit 3, got {proc.returncode}: {err.decode()}")
    if b"interrupted" not in err:
        fail(f"sigint: no 'interrupted' report on stderr: {err.decode()}")
    snapshot = load_snapshot(snap)
    if snapshot["complete"]:
        fail("sigint: interrupted snapshot must not be marked complete")
    print(f"  sigint: OK (exit 3, snapshot cursor {snapshot['cursor']})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--binary", default="_build/default/bin/folearn_cli.exe"
    )
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--solvers", default=",".join(SOLVERS), help="comma-separated subset"
    )
    ap.add_argument("--sigint", action="store_true", help="run the SIGINT smoke only")
    args = ap.parse_args()

    if not os.path.exists(args.binary):
        fail(f"binary not found: {args.binary} (run dune build first)")

    with tempfile.TemporaryDirectory(prefix="folearn-crash-") as tmpdir:
        if args.sigint:
            print(f"crash_recovery: SIGINT smoke (jobs {args.jobs})")
            sigint_smoke(args.binary, args.jobs, tmpdir)
        else:
            rng = random.Random(args.seed)
            print(
                f"crash_recovery: jobs {args.jobs}, seed {args.seed}, "
                f"max {MAX_CYCLES} cycles/solver"
            )
            for name in args.solvers.split(","):
                base = [args.binary, "learn"] + SOLVERS[name]
                kill_resume_cycle(name, base, args.jobs, rng, tmpdir)
    print("crash_recovery: PASS")


if __name__ == "__main__":
    main()
