"""The open-loop request generator (one process, a few TCP connections).

Requests are sent on a seeded Poisson schedule whatever the server does,
as independent sequencers would; each request's latency runs from the
time it was *due* to its result frame, so a stall also charges the
requests queued behind it.  The generator records how late it sent
(lag) and how many requests were still outstanding when the last one
went out (backlog).  :meth:`LoadGenerator.sequential` measures latency
with nothing queued, and :meth:`LoadGenerator.closed_loop` is the
capacity probe: each connection keeps a fixed window of requests in
flight.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from stats import RungOutcome, percentile

from repro.megis import wire

REPLY_TIMEOUT_S = 60.0


@dataclass
class Reply:
    """One request's fate as the client saw it."""

    request_id: str
    pool_index: int
    due: float
    sent: float = 0.0
    received: float = 0.0
    frame: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.frame is not None and "error" not in self.frame

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1e3

    @property
    def rtt_ms(self) -> float:
        return (self.received - self.sent) * 1e3


@dataclass
class Phase:
    """The replies of one rung or probe plus the generator's own record."""

    name: str
    rate: float
    replies: List[Reply] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    backlog_end: int = 0
    wall_s: float = 0.0
    #: Host-speed probes bracketing each request (sequential phases).
    probes_ms: List[float] = field(default_factory=list)

    def outcome(self) -> RungOutcome:
        return RungOutcome(
            rate=self.rate,
            latencies_ms=[r.latency_ms for r in self.replies if r.ok],
            failed=sum(1 for r in self.replies if not r.ok),
            lag_ms_p95=percentile(self.lag_ms, 95) if self.lag_ms else 0.0,
            backlog_end=self.backlog_end,
        )


class LoadGenerator:
    """Persistent connections to one server, shared by every phase."""

    def __init__(self, address: Tuple[str, int],
                 pool: Sequence[Sequence[str]], seed: int,
                 connections: int = 2):
        self.address = address
        self.pool = pool  # the distinct samples requests are drawn from
        self.connections = connections
        self._rng = np.random.default_rng([seed, 99])
        # Requests cycle through the pool in a seeded order, so every
        # phase sends the same mix of samples.
        self._order = self._rng.permutation(len(pool)).tolist()
        self._waiting: Dict[str, Tuple[Reply, asyncio.Future]] = {}
        self._writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._next = 0
        self.request_bytes: List[int] = []
        self.result_bytes: List[int] = []

    async def __aenter__(self) -> "LoadGenerator":
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(
                *self.address, limit=1 << 24)
            self._writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))
        return self

    async def __aexit__(self, *exc) -> None:
        for writer in self._writers:
            if not writer.is_closing():
                writer.write_eof()
        for task in self._readers:
            try:
                await asyncio.wait_for(task, REPLY_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError):
                task.cancel()
        for writer in self._writers:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            frame = json.loads(line)
            waiting = self._waiting.pop(str(frame.get("id")), None)
            if waiting is None:
                continue  # drain summaries and other event frames
            reply, future = waiting
            reply.received = now
            reply.frame = frame
            self.result_bytes.append(len(line))
            if not future.done():
                future.set_result(reply)

    def _send(self, reply: Reply, connection: int) -> asyncio.Future:
        frame = wire.encode(wire.request_record(
            reply.request_id, self.pool[reply.pool_index]))
        future = asyncio.get_running_loop().create_future()
        self._waiting[reply.request_id] = (reply, future)
        reply.sent = time.perf_counter()
        self._writers[connection].write(frame)
        self.request_bytes.append(len(frame))
        return future

    def _new_reply(self, phase: str, due: float) -> Reply:
        index = self._order[self._next % len(self._order)]
        self._next += 1
        return Reply(f"{phase}-{self._next}", index, due)

    async def open_loop(self, name: str, rate: float, n: int) -> Phase:
        """``n`` requests at Poisson arrivals of ``rate`` per second."""
        phase = Phase(name, rate)
        gaps = self._rng.exponential(1.0 / rate, n).tolist()
        start = time.perf_counter() + 0.05
        futures = []
        due = start
        for i, gap in enumerate(gaps):
            due += gap if i else 0.0
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            reply = self._new_reply(name, due)
            futures.append(self._send(reply, i % self.connections))
            phase.lag_ms.append((reply.sent - due) * 1e3)
            phase.replies.append(reply)
        phase.backlog_end = sum(1 for f in futures if not f.done())
        await asyncio.wait_for(asyncio.gather(*futures), REPLY_TIMEOUT_S)
        phase.wall_s = max(r.received for r in phase.replies) - start
        return phase

    async def sequential(self, name: str, n: int,
                         probe: Optional[Callable[[], float]] = None) -> Phase:
        """``n`` requests one at a time on one connection: latency with
        nothing queued, each timed from its own send.  ``probe``, if
        given, runs before the first request and after each one, with
        nothing in flight (see hostspeed.py)."""
        phase = Phase(name, 0.0)
        start = time.perf_counter()
        if probe is not None:
            phase.probes_ms.append(probe())
        for _ in range(n):
            reply = self._new_reply(name, time.perf_counter())
            phase.replies.append(reply)
            await asyncio.wait_for(self._send(reply, 0), REPLY_TIMEOUT_S)
            if probe is not None:
                phase.probes_ms.append(probe())
        phase.wall_s = time.perf_counter() - start
        return phase

    async def warm_up(self, window: int) -> Phase:
        """Send every pool entry once, ``window`` in flight per connection,
        so lazy set-up in the servers finishes before anything is timed."""
        pending = list(range(len(self.pool)))

        def next_reply() -> Optional[Reply]:
            if not pending:
                return None
            index = pending.pop(0)
            return Reply(f"warmup-{index}", index, time.perf_counter())

        return await self._windowed(Phase("warmup", 0.0), window, next_reply)

    async def closed_loop(self, name: str, seconds: float, window: int) -> Phase:
        """Each connection keeps ``window`` requests outstanding."""
        stop = time.perf_counter() + seconds

        def next_reply() -> Optional[Reply]:
            now = time.perf_counter()
            return self._new_reply(name, now) if now < stop else None

        return await self._windowed(Phase(name, 0.0), window, next_reply)

    async def _windowed(self, phase: Phase, window: int, next_reply) -> Phase:
        """Closed loop: top each connection up to ``window`` in flight
        until ``next_reply`` runs dry, then wait for the stragglers."""
        start = time.perf_counter()

        async def client(connection: int) -> None:
            inflight = set()
            while True:
                while len(inflight) < window:
                    reply = next_reply()
                    if reply is None:
                        break
                    phase.replies.append(reply)
                    inflight.add(self._send(reply, connection))
                if not inflight:
                    return
                done, inflight = await asyncio.wait(
                    inflight, timeout=REPLY_TIMEOUT_S,
                    return_when=asyncio.FIRST_COMPLETED)
                if not done:
                    raise TimeoutError("no reply within the timeout")

        await asyncio.gather(*(client(c) for c in range(self.connections)))
        phase.wall_s = max(r.received for r in phase.replies) - start
        return phase
