"""The load generator: a few keep-alive HTTP/1.1 connections, one event loop.

:class:`LoadGen` owns ``conns`` connections and one worker task per
connection.  Open-loop phases enqueue each request at its scheduled time
whether or not earlier ones have returned; a request then waits for a free
connection, and that wait is the client-side *backlog*.  Latency is timed
from the scheduled time, so a stall is charged to every request it delays.
Closed-loop phases keep every connection busy back to back.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


def http_request(path: str, body: Optional[bytes], method: str = "POST") -> bytes:
    body = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """``(status, raw body)``; the body is parsed later, off the timed path."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("connection closed before status line")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b"{}"
    return status, body


async def fetch(host: str, port: int, method: str, path: str, body: Optional[bytes] = None):
    """One request over a fresh connection (control traffic, never timed)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(http_request(path, body, method))
        await writer.drain()
        status, raw = await read_response(reader)
        return status, json.loads(raw)
    finally:
        writer.close()


@dataclass
class Outcome:
    """What the client saw for one request (times on the loop's clock)."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes = field(repr=False)


@dataclass
class PhaseResult:
    outcomes: List[Outcome]
    late_ms: List[float]
    backlog: List[int]
    wall_s: float
    windows: List[Tuple[float, float]]  # wall-clock (time.time) spans of the phase

    @classmethod
    def join(cls, parts: Sequence["PhaseResult"]) -> "PhaseResult":
        """One phase from several rounds of it."""
        return cls(
            [o for p in parts for o in p.outcomes],
            [x for p in parts for x in p.late_ms],
            [b for p in parts for b in p.backlog],
            sum(p.wall_s for p in parts),
            [w for p in parts for w in p.windows],
        )


class LoadGen:
    def __init__(self, host: str, port: int, conns: int, timeout_s: float = 60.0):
        self._host = host
        self._port = port
        self._conns = conns
        self._timeout_s = timeout_s
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._workers: List[asyncio.Task] = []
        self._sink: List[Outcome] = []
        self._refill = None

    async def start(self) -> None:
        for _ in range(self._conns):
            reader, writer = await asyncio.open_connection(self._host, self._port)
            self._workers.append(asyncio.ensure_future(self._work(reader, writer)))

    async def close(self) -> None:
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []

    async def _work(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                index, due, raw = await self._queue.get()
                sent = loop.time()
                try:
                    writer.write(raw)
                    await writer.drain()
                    status, body = await asyncio.wait_for(
                        read_response(reader), self._timeout_s
                    )
                except (ConnectionError, asyncio.IncompleteReadError, OSError,
                        asyncio.TimeoutError, ValueError):
                    status, body = -1, b""
                    writer.close()
                    reader, writer = await asyncio.open_connection(self._host, self._port)
                self._sink.append(Outcome(index, due, sent, loop.time(), status, body))
                if self._refill is not None:
                    self._refill()
                self._queue.task_done()
        finally:
            writer.close()

    async def open_loop(self, requests: Sequence[Tuple[int, bytes]], offsets: Sequence[float]) -> PhaseResult:
        """Send ``requests[i]`` at ``start + offsets[i]``; wait for every reply."""
        loop = asyncio.get_running_loop()
        self._sink = []
        late_ms: List[float] = []
        backlog: List[int] = []
        started = time.time()
        t0 = loop.time() + 0.005
        for (index, raw), offset in zip(requests, offsets):
            due = t0 + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append(max(0.0, (loop.time() - due) * 1e3))
            backlog.append(self._queue.qsize())
            self._queue.put_nowait((index, due, raw))
        await self._queue.join()
        return PhaseResult(self._sink, late_ms, backlog, loop.time() - t0, [(started, time.time())])

    async def closed_loop(self, requests: Sequence[Tuple[int, bytes]], seconds: float) -> PhaseResult:
        """Keep every connection busy for ``seconds`` (or until requests run out)."""
        loop = asyncio.get_running_loop()
        self._sink = []
        started = time.time()
        t0 = loop.time()
        stop = t0 + seconds
        it = iter(requests)

        def refill() -> None:
            if loop.time() >= stop:
                return
            nxt = next(it, None)
            if nxt is not None:
                self._queue.put_nowait((nxt[0], loop.time(), nxt[1]))

        self._refill = refill
        try:
            for _ in range(self._conns):
                refill()
            await self._queue.join()
        finally:
            self._refill = None
        return PhaseResult(self._sink, [], [], loop.time() - t0, [(started, time.time())])
