"""Starts program processes from a small helper interpreter.

Linux carries a process's resident-set high-water mark into the
ru_maxrss of a child it forks, across the child's exec.  Forked straight
from the benchmark, whose own memory grows while it checks answers, a
program's peak RSS would read as the benchmark's.  The helper is a fresh
`python3 -S` whose memory stays small and constant: it forks and execs
each program with the descriptors it is handed and reports the
program's exit code, wall time and rusage.

Parent and helper talk over a SOCK_SEQPACKET socket pair, one JSON
message per packet, descriptors attached with SCM_RIGHTS.
"""

import json
import os
import socket
import subprocess
import sys
import time


def _usage(pid):
    _, status, ru = os.wait4(pid, 0)
    return {"code": os.waitstatus_to_exitcode(status),
            "cpu": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def _helper(sock):
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not msg:
            return
        req = json.loads(msg)
        if req["op"] == "wait":
            sock.send(json.dumps(_usage(req["pid"])).encode())
            continue
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(fds[0], 1)
                os.dup2(fds[1], 2)
                if req.get("cpus"):
                    os.sched_setaffinity(0, req["cpus"])
                os.execv(req["argv"][0], req["argv"])
            finally:
                os._exit(127)
        for fd in fds:
            os.close(fd)
        if req["op"] == "start":
            sock.send(json.dumps({"pid": pid}).encode())
        else:
            reply = _usage(pid)
            reply["elapsed"] = time.perf_counter() - t0
            sock.send(json.dumps(reply).encode())


class Spawner:
    def __init__(self, env):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.abspath(__file__), str(theirs.fileno())],
            pass_fds=[theirs.fileno()], env=env)
        theirs.close()

    def _send(self, req, fds=()):
        socket.send_fds(self.sock, [json.dumps(req).encode()], list(fds))
        return json.loads(self.sock.recv(1 << 16))

    def run(self, argv, err, cpus=None):
        """Run argv to completion, on the CPUs listed if cpus is given:
        (wall s, exit code, stdout, cpu s, max rss KB)."""
        r, w = os.pipe()
        req = {"op": "run", "argv": argv, "cpus": cpus}
        socket.send_fds(self.sock, [json.dumps(req).encode()], [w, err.fileno()])
        os.close(w)
        with open(r, "rb") as f:
            out = f.read()
        reply = json.loads(self.sock.recv(1 << 16))
        return reply["elapsed"], reply["code"], out, reply["cpu"], reply["maxrss_kb"]

    def start(self, argv, out_fd, err, cpus=None):
        """Start argv in the background, on the CPUs listed if cpus is
        given; returns its pid (reap with wait)."""
        return self._send({"op": "start", "argv": argv, "cpus": cpus},
                          [out_fd, err.fileno()])["pid"]

    def wait(self, pid):
        """Reap a started process: {"code", "cpu", "maxrss_kb"}."""
        return self._send({"op": "wait", "pid": pid})

    def close(self):
        self.sock.close()
        self.proc.wait()


if __name__ == "__main__":
    _helper(socket.socket(fileno=int(sys.argv[1])))
