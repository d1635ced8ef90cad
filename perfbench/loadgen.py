"""Open-loop request generation that stays out of what it measures.

Requests are drawn one at a time from a seeded source when they fall
due (never materialized up front), each request's due-time latency and
status land in arrays preallocated for the phase, and every task and
response is dropped as soon as it has been counted.  The harness thus
adds almost nothing to the heap the gen-2 collector walks; collection
itself stays on.  The generator records how late it ran behind the
schedule for every request it sent.
"""

from __future__ import annotations

import asyncio
import math
from array import array
from dataclasses import dataclass
from typing import Awaitable, Callable

import numpy as np

#: Status recorded for a request whose handler raised.
FAILED = -1
#: Status of a slot never filled (the request was never answered).
UNANSWERED = 0


@dataclass
class PhaseResult:
    """Everything one fixed-rate phase measured."""

    rate: float
    latency_s: array  # due-time latency per request
    status: array  # response status per request
    lag_s: array  # how late the generator sent each request
    elapsed_s: float

    def extend(self, other: "PhaseResult") -> "PhaseResult":
        """Pool ``other``, a repeat of this phase at the same rate."""
        self.latency_s.extend(other.latency_s)
        self.status.extend(other.status)
        self.lag_s.extend(other.lag_s)
        self.elapsed_s += other.elapsed_s
        return self

    @property
    def sent(self) -> int:
        return len(self.status)

    def by_status(self) -> dict[int, int]:
        codes, counts = np.unique(np.asarray(self.status), return_counts=True)
        return {int(c): int(n) for c, n in zip(codes, counts)}

    def latencies_with_misses(self) -> np.ndarray:
        """Due-time latencies; a refused or failed request is infinite."""
        latency = np.asarray(self.latency_s, dtype=float).copy()
        latency[np.asarray(self.status) != 200] = math.inf
        return latency

    def ok_within(self, limit_s: float) -> int:
        """Requests answered 200 within ``limit_s`` of their due time."""
        return int(np.count_nonzero(self.latencies_with_misses() <= limit_s))


async def run_phase(
    handle: Callable[[str, object], Awaitable[object]],
    next_request: Callable[[], tuple[str, object]],
    rate: float,
    seconds: float,
    ticks: Callable[[], Awaitable[None]] | None = None,
    tick_every_s: float = 0.5,
) -> PhaseResult:
    """Send ``rate * seconds`` requests open-loop at a fixed ``rate``.

    ``ticks``, when given, is awaited on its own schedule every
    ``tick_every_s`` seconds of the phase (the writes beside the reads).
    """
    loop = asyncio.get_running_loop()
    n = max(1, int(round(rate * seconds)))
    latency = array("d", bytes(8 * n))
    status = array("i", bytes(4 * n))
    lag = array("d", bytes(8 * n))
    pending: set[asyncio.Task] = set()

    async def one(index: int, due: float, endpoint: str, request) -> None:
        try:
            response = await handle(endpoint, request)
        except Exception:  # noqa: BLE001 - counted as a failed request
            status[index] = FAILED
        else:
            status[index] = response.status
        latency[index] = loop.time() - due

    async def ticker(start: float) -> list[float]:
        starts = []
        k = 1
        while k * tick_every_s < seconds:
            delay = start + k * tick_every_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            starts.append(loop.time())
            await ticks()
            k += 1
        return starts

    start = loop.time() + 0.005
    tick_task = loop.create_task(ticker(start)) if ticks is not None else None
    interval = 1.0 / rate
    index = 0
    while index < n:
        now = loop.time()
        due = start + index * interval
        if due > now:
            await asyncio.sleep(due - now)
            continue
        while index < n and start + index * interval <= now:
            due = start + index * interval
            endpoint, request = next_request()
            lag[index] = now - due
            task = loop.create_task(one(index, due, endpoint, request))
            pending.add(task)
            task.add_done_callback(pending.discard)
            index += 1
        await asyncio.sleep(0)
    while pending:
        await asyncio.wait(set(pending))
    if tick_task is not None:
        await tick_task
    elapsed = loop.time() - start
    return PhaseResult(rate, latency, status, lag, elapsed)
