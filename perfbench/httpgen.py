"""A minimal HTTP/1.1 keep-alive client and a one-thread open-loop generator.

The client is deliberately the benchmark's own (not
``repro.service.client``), so a change to the repository's client library
cannot move the numbers.  The generator is open-loop: request ``i`` comes
due at ``t0 + i / rate`` whatever happened before it, and its latency is
timed from that due time, so waiting for one of the (at most two) busy
connections counts against the server.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import time
from dataclasses import dataclass

from perfbench.workloads import Request

#: Keep-alive connections the generator opens (the host has two cores).
CONNECTIONS = 2
#: Event-loop threads the generator runs on.
THREADS = 1
#: A phase is over capacity when its send delay grows faster than this
#: share of the elapsed schedule: it completed under ~0.95x its offered rate.
BEHIND_SHARE = 0.05


class HttpConnection:
    """One keep-alive HTTP/1.1 connection to the server under test."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple:
        """Send one request; returns ``(status, body bytes)``.

        Reconnects transparently when the server closed the connection
        (``Connection: close``) after the previous answer.
        """
        if self._writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload


@dataclass
class Sample:
    """One sent request: its due, send and completion instants."""

    request: Request
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from due time to the complete answer."""
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class Phase:
    """The outcome of one open-loop phase."""

    name: str
    rate: float
    planned: int
    samples: list
    started: float
    elapsed: float
    cpu_seconds: float
    max_loop_lag: float
    aborted: bool
    #: Median send delay (send time minus due time) over the first and the
    #: last quarter of the planned requests.
    first_delay: float
    final_delay: float

    def over_capacity(self) -> bool:
        """True when the backlog grew: the generator fell behind schedule.

        Below capacity requests leave on time, so the send delay stays near
        zero apart from short stalls, which the two medians ignore.  Above
        capacity request ``i`` leaves at ``i / completion rate`` instead of
        ``i / offered rate``, so the delay grows by ``offered / completion
        - 1`` per second of schedule; the quarters' midpoints lie three
        quarters of the schedule apart.
        """
        behind = self.final_delay - self.first_delay
        return self.aborted or behind > BEHIND_SHARE * 0.75 * self.planned / self.rate

    def counts(self) -> dict:
        succeeded = sum(1 for s in self.samples if s.ok)
        return {
            "planned": self.planned,
            "sent": len(self.samples),
            "succeeded": succeeded,
            "failed": len(self.samples) - succeeded,
        }


async def run_phase(
    connections: list,
    requests: list,
    rate: float,
    name: str,
    abort_after: float | None = None,
) -> Phase:
    """Send ``requests`` at ``rate`` req/s over ``connections``.

    ``abort_after`` (seconds): stop issuing once a request starts this late
    — the rung is over capacity and waiting out its backlog teaches nothing.
    """
    planned = len(requests)
    slots: list = [None] * planned
    cursor = 0
    max_loop_lag = 0.0
    aborted = False
    # A cyclic collection over the growing sample list would pause the
    # generator for milliseconds and land in the measured tail.
    gc.collect()
    gc.disable()
    cpu_started = time.process_time()
    started = time.perf_counter() + 0.002

    async def worker(connection: HttpConnection) -> None:
        nonlocal cursor, max_loop_lag, aborted
        while not aborted and cursor < planned:
            index = cursor
            cursor += 1
            due = started + index / rate
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
                max_loop_lag = max(max_loop_lag, now - due)
            elif abort_after is not None and now - due > abort_after:
                aborted = True
                return
            request = requests[index]
            try:
                status, body = await connection.request("POST", request.path, request.body)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError, OSError):
                status, body = 0, b""
                await connection.close()
            slots[index] = Sample(request, due, now, time.perf_counter(), status, body)

    try:
        await asyncio.gather(*(worker(c) for c in connections))
    finally:
        gc.enable()
    samples = [s for s in slots if s is not None]
    ended = max((s.done for s in samples), default=started)
    delays = [s.sent - s.due for s in samples]
    quarter = max(1, len(delays) // 4)
    first_delay = statistics.median(delays[:quarter]) if delays else 0.0
    final_delay = statistics.median(delays[-quarter:]) if delays else 0.0
    return Phase(
        name=name,
        rate=rate,
        planned=planned,
        samples=samples,
        started=started,
        elapsed=ended - started,
        cpu_seconds=time.process_time() - cpu_started,
        max_loop_lag=max_loop_lag,
        aborted=aborted,
        first_delay=first_delay,
        final_delay=final_delay,
    )


async def get_json(connection: HttpConnection, path: str) -> dict:
    """``GET`` a JSON endpoint (``/metrics``, ``/stats``); raises on non-200."""
    status, body = await connection.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


async def post_json(connection: HttpConnection, path: str, document: dict) -> tuple:
    """``POST`` a JSON document; returns ``(status, parsed body)``."""
    status, body = await connection.request(
        "POST", path, json.dumps(document).encode("ascii")
    )
    return status, json.loads(body) if body else {}
