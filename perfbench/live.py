"""``repro-faascache serve`` in a child process, and the benchmark's own
single-connection asyncio HTTP client for it."""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

from loads import Request, Rung

ANNOUNCE = re.compile(rb"at http://([\d.]+):(\d+)")
STARTUP_TIMEOUT_S = 60.0
RESPONSE_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 20.0
#: Requests in flight in the pipelined closed loop.
WINDOW = 256


def split_cpus() -> Optional[int]:
    """Pin this process to one of its CPUs and return another one for
    the live server (None when there is only one). The replaying or
    client process and the server then never migrate or share a CPU;
    on a two-CPU host this raised the live closed-loop rate by a fifth
    and halved its p99 latency."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


class ServerProcess:
    """One server child process, on ``cpu`` if given; ``setup_s`` is the
    time from spawn until it announced its port."""

    def __init__(
        self,
        root: str,
        serve_args: Sequence[str],
        spans_out: Optional[str] = None,
        cpu: Optional[int] = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [
                sys.executable,
                os.path.join(root, "perfbench", "serve_traced.py"),
                spans_out,
            ]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command + list(serve_args),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.proc.pid, {cpu})
            self.host, self.port = self._await_announce(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_announce(self, started: float) -> Tuple[str, int]:
        assert self.proc.stderr is not None
        fd = self.proc.stderr.fileno()
        seen = b""
        while True:
            remaining = started + STARTUP_TIMEOUT_S - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("server did not announce a port in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited before announcing a port: {seen.decode(errors='replace')}"
                )
            seen += chunk
            match = ANNOUNCE.search(seen)
            if match:
                return match.group(1).decode(), int(match.group(2))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server (its shutdown path) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def encode_admit(name: str, now_s: float) -> bytes:
    body = json.dumps({"function": name, "now_s": now_s}, separators=(",", ":")).encode()
    return b"POST /admit HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body),
        body,
    )


class Connection(asyncio.Protocol):
    """One keep-alive connection. Responses arrive in request order;
    each is stored raw with the time its bytes were read, and bodies
    are decoded only after a measurement ends."""

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.responses: List[Tuple[float, int, bytes]] = []
        self.lost: Optional[BaseException] = None
        self._buffer = bytearray()
        self._want = 0
        self._waiter: Optional[asyncio.Future] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        received_at = time.perf_counter()
        buffer = self._buffer
        buffer += data
        pos = 0
        while True:
            head_end = buffer.find(b"\r\n\r\n", pos)
            if head_end < 0:
                break
            length = 0
            header = buffer.find(b"\r\nContent-Length:", pos, head_end)
            if header >= 0:
                line_end = buffer.find(b"\r\n", header + 2)
                length = int(buffer[header + 17:line_end])
            body_end = head_end + 4 + length
            if body_end > len(buffer):
                break
            status = int(buffer[pos + 9:pos + 12])
            self.responses.append(
                (received_at, status, bytes(buffer[head_end + 4:body_end]))
            )
            pos = body_end
        del buffer[:pos]
        self._wake()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = exc or ConnectionError("server closed the connection")
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            if self.lost is not None:
                waiter.set_exception(self.lost)
            elif len(self.responses) >= self._want:
                waiter.set_result(None)

    async def until(self, count: int, timeout: float = RESPONSE_TIMEOUT_S) -> None:
        """Wait until ``count`` responses have arrived in total."""
        if len(self.responses) >= count:
            return
        if self.lost is not None:
            raise self.lost
        self._want = count
        self._waiter = asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait_for(self._waiter, timeout)
        finally:
            self._waiter = None

    async def get(self, path: str) -> dict:
        base = len(self.responses)
        self.transport.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await self.until(base + 1)
        __, status, body = self.responses[base]
        if status != 200:
            raise RuntimeError(f"GET {path} returned HTTP {status}")
        return json.loads(body)


async def connect(host: str, port: int) -> Connection:
    loop = asyncio.get_running_loop()
    __, connection = await loop.create_connection(Connection, host, port)
    return connection


def _decode(conn: Connection, base: int, count: int, due: Optional[Sequence[float]]) -> Rung:
    """A rung from the ``count`` responses after ``base``, which are then
    dropped. Latencies are kept only when ``due`` times are given;
    requests without a response count as failed."""
    rung = Rung(rate=0.0)
    responses = conn.responses[base:base + count]
    del conn.responses[base:]
    for j, (received_at, status, body) in enumerate(responses):
        if status != 200:
            rung.errors += 1
            if due is not None:
                rung.rtt_s.append(math.inf)
                rung.decision_us.append(math.nan)
            continue
        payload = json.loads(body)
        rung.outcomes.append(sys.intern(payload["outcome"]))
        if due is not None:
            rung.rtt_s.append(received_at - due[j])
            rung.decision_us.append(payload["decision_us"])
    missing = count - len(responses)
    rung.errors += missing
    if due is not None:
        rung.rtt_s.extend([math.inf] * missing)
        rung.decision_us.extend([math.nan] * missing)
    return rung


async def closed_loop(conn: Connection, requests: Sequence[Request]) -> Tuple[float, Rung]:
    """Pipelined closed loop: keep WINDOW requests in flight, topping up
    whenever half of them have been answered. Returns the wall time and
    a rung with the outcomes, without latencies."""
    payloads = [encode_admit(name, now_s) for name, now_s in requests]
    count = len(payloads)
    base = len(conn.responses)
    sent = 0
    started = time.perf_counter()
    while sent < count:
        upto = min(count, len(conn.responses) - base + WINDOW)
        conn.transport.write(b"".join(payloads[sent:upto]))
        sent = upto
        await conn.until(base + max(0, sent - WINDOW // 2))
    await conn.until(base + count)
    wall_s = time.perf_counter() - started
    rung = _decode(conn, base, count, None)
    rung.rate = count / wall_s
    return wall_s, rung


async def open_loop(conn: Connection, requests: Sequence[Request], rate: float) -> Rung:
    """Open loop at ``rate``: request ``j`` is due ``j / rate`` seconds
    after the start and is written as soon as it is due, whether or not
    earlier responses are back. Between sends the loop yields to the
    event loop instead of sleeping, because the selector's timeout has
    millisecond granularity."""
    payloads = [encode_admit(name, now_s) for name, now_s in requests]
    count = len(payloads)
    base = len(conn.responses)
    interval = 1.0 / rate
    start = time.perf_counter() + 0.002
    due = [start + j * interval for j in range(count)]
    late_s: List[float] = []
    sent = 0
    while sent < count:
        now = time.perf_counter()
        upto = min(count, int((now - start) / interval) + 1) if now >= start else 0
        if upto > sent:
            conn.transport.write(b"".join(payloads[sent:upto]))
            late_s.extend(now - due[j] for j in range(sent, upto))
            sent = upto
        if sent < count:
            wait = due[sent] - time.perf_counter()
            await asyncio.sleep(wait - 0.002 if wait > 0.003 else 0)
    try:
        await conn.until(base + count)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass
    rung = _decode(conn, base, count, due)
    rung.rate = rate
    rung.late_s = late_s
    return rung
