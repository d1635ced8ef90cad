"""Span recording and the benchmark's arithmetic (no ``repro`` imports).

A :class:`Tracer` records synchronous spans around wrapped callables.
Spans live in growable ``array`` columns (never GC-tracked),
so a traced run adds no objects for the cyclic collector to walk.  Each
span stores its name id, start, end and the index of the span open
when it began; self times are derived from those columns at the end:

    self(span) = duration(span) - sum(duration(child) for direct children)

Synchronous spans nest strictly, so the direct children of a span are
disjoint and the sum above never counts an interval twice.  Summed over
every span, self time is the time covered by the outermost spans, and
``unattributed = wall - sum(self)`` closes the books against the wall.

Coroutines are never wrapped as spans (a span open across an ``await``
would overlap whatever ran meanwhile); their waits are timed into
plain ``array`` columns instead.
"""

from __future__ import annotations

import gc
import math
import time
from array import array
from typing import Callable, Iterable, Sequence

import numpy as np

#: Percentiles :func:`tail_percentile` may report, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100); NaN if empty."""
    n = len(values)
    if n == 0:
        return math.nan
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[_rank(q, n) - 1])


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return min(n, max(1, math.ceil(round(q * n / 100.0, 9))))


def tail_percentile(
    values: Sequence[float], min_beyond: int = MIN_BEYOND
) -> tuple[float, float, int] | None:
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    Returns ``(q, value, n)`` where ``n`` is the sample count, or None
    when there are too few samples for even the median.
    """
    n = len(values)
    for q in PERCENTILE_LADDER:
        if n and n - _rank(q, n) >= min_beyond:
            return q, percentile(values, q), n
    return None


class Tracer:
    """In-memory span recorder with strict nesting and self-time rollups."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._open: list[int] = []

    # -- recording -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        index = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._open and self._open[-1] == index:
            self._open.pop()
        else:  # pragma: no cover - a wrapper escaped its own frame
            raise RuntimeError("span closed out of order")

    def innermost(self) -> str | None:
        """Name of the innermost open span (None at top level)."""
        if not self._open:
            return None
        return self.names[self.name_ids[self._open[-1]]]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as span ``name`` on every call."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- rollups ---------------------------------------------------------------
    def rollup(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        return span_rollup(
            self.names, self.name_ids, self.starts, self.ends, self.parents
        )

    def to_json(self) -> dict:
        """Columnar dump of every span (what a traced run writes out)."""
        return {
            "names": list(self.names),
            "name": list(self.name_ids),
            "start": list(self.starts),
            "end": list(self.ends),
            "parent": list(self.parents),
        }


def span_rollup(
    names: Sequence[str],
    name_ids: Iterable[int],
    starts: Iterable[float],
    ends: Iterable[float],
    parents: Iterable[int],
) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name.

    A span's self time is its duration minus its direct children's
    durations.  Spans still open (no end) are dropped with their
    subtrees' contribution to them.
    """
    ident = np.asarray(name_ids, dtype=np.int64)
    start = np.asarray(starts, dtype=float)
    end = np.asarray(ends, dtype=float)
    parent = np.asarray(parents, dtype=np.int64)
    out: dict[str, dict[str, float]] = {}
    if ident.size == 0:
        return out
    closed = ~np.isnan(end)
    duration = np.where(closed, end - start, 0.0)
    has_parent = (parent >= 0) & closed
    child_total = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=ident.size
    )
    own = duration - child_total
    n_names = len(names)
    calls = np.bincount(ident[closed], minlength=n_names)
    total = np.bincount(ident, weights=duration, minlength=n_names)
    self_s = np.bincount(ident, weights=np.where(closed, own, 0.0), minlength=n_names)
    for i, name in enumerate(names):
        if calls[i]:
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
    return out


def unattributed(wall: float, rollup: dict[str, dict[str, float]]) -> float:
    """Wall seconds no span's self time covers."""
    return wall - sum(entry["self_s"] for entry in rollup.values())


class GcWatch:
    """Counts gen-2 collections and their pause time via ``gc.callbacks``.

    Only observes: collection stays enabled and unfrozen.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.count = 0
        self.pause_s = 0.0
        self._started: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = self.clock()
        elif self._started is not None:
            self.pause_s += self.clock() - self._started
            self._started = None
            self.count += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
