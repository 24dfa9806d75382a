"""Client side of the `folearn serve` protocol, for the benchmark.

A frame is `FOLEARNRPC1 <crc32-hex> <length>\\n<JSON body>\\n`, the CRC
being zlib's over the body (lib/serve/frame.ml).  Connections are
asyncio Unix-socket streams, so one thread drives every connection.
"""

import asyncio
import json
import os
import select
import signal
import time
import zlib

MAGIC = b"FOLEARNRPC1"


def encode(obj):
    body = json.dumps(obj, separators=(",", ":")).encode()
    return b"%s %08x %d\n%s\n" % (MAGIC, zlib.crc32(body), len(body), body)


def request(op, params=None, deadline_s=None):
    return {
        "schema_version": 1, "op": op, "tenant": "bench",
        "deadline_s": deadline_s, "params": params or {},
    }


class Conn:
    """One client connection; `call` sends a request and awaits its answer."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, path):
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    async def call(self, req):
        self.writer.write(encode(req))
        await self.writer.drain()
        header = await self.reader.readline()
        fields = header.split()
        if len(fields) != 3 or fields[0] != MAGIC:
            raise ValueError(f"bad response header {header[:64]!r}")
        body = await self.reader.readexactly(int(fields[2]) + 1)
        body = body[:-1]
        if zlib.crc32(body) != int(fields[1], 16):
            raise ValueError("response CRC mismatch")
        return json.loads(body)

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


class Daemon:
    """A `folearn serve` process listening on a Unix socket, started
    through a spawn.Spawner so that its rusage is its own, on the CPUs
    listed if cpus is given."""

    def __init__(self, spawner, cli, sock, job_dir, log, cpus=None):
        self.spawner = spawner
        self.sock = sock
        r, w = os.pipe()
        self.pid = spawner.start(
            [cli, "serve", "--listen", "unix:" + sock, "--jobs", "1",
             "--job-dir", job_dir, "--queue-cap", "256"], w, log, cpus)
        os.close(w)
        self.out = os.fdopen(r, "rb", buffering=0)
        self.usage = None

    def wait_listening(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.out], [], [], left)[0]:
                raise RuntimeError("serve did not start listening")
            chunk = self.out.read(1)
            if not chunk:
                raise RuntimeError("serve exited before listening")
            line += chunk
        if b"listening on" not in line:
            raise RuntimeError(f"unexpected serve banner {line!r}")

    def stop(self, sig=signal.SIGTERM):
        """Signal (SIGTERM drains gracefully), reap, and keep the usage:
        {"code", "cpu", "maxrss_kb"}."""
        if self.usage is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass
            self.usage = self.spawner.wait(self.pid)
            self.out.close()
        return self.usage

    def kill(self):
        self.stop(signal.SIGKILL)
