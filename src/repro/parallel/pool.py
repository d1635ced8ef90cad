"""A persistent single-worker process pool for next-day prefetch.

The pool does not exist until the first :meth:`WorkerPool.submit`;
after that one worker process serves every prefetch until
:meth:`WorkerPool.shutdown` (or interpreter exit).  ``shutdown`` is
never final: the next submit re-arms a fresh worker, which is what
lets a fabric resume after checkpoint restore without ceremony.

Under pytest the fabric does not use the pool unless
``REPRO_PARALLEL_FORCE=1`` is set (pool startup is slow and
sandbox-hostile inside test runs); the prefetch tests set it to drive
the real worker.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from repro.obs.runtime import ObservabilityRuntime

T = TypeVar("T")
R = TypeVar("R")

#: Environment switch: run the real pool even under pytest.
FORCE_ENV = "REPRO_PARALLEL_FORCE"


def _warmup() -> int:
    """No-op submitted at pool start so spawn cost is measured honestly."""
    return os.getpid()


class WorkerPool:
    """A lazily started, obs-instrumented, one-worker process pool."""

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._obs: "ObservabilityRuntime | None" = None
        #: Pools started over this handle's lifetime (cold starts).
        self.generation = 0
        #: Measured wall seconds of the last cold start (incl. warmup).
        self.spawn_seconds = 0.0
        self.dispatches = 0

    def bind(self, obs: "ObservabilityRuntime | None") -> "WorkerPool":
        """Attach (or detach) an observability runtime; returns self."""
        self._obs = obs
        return self

    def _emit(self, kind: str, value: float = 1.0, **attributes: object) -> None:
        if self._obs is not None:
            self._obs.emit("parallel", "pool", kind, value=value, **attributes)

    @property
    def started(self) -> bool:
        return self._executor is not None

    @property
    def width(self) -> int:
        """Live worker processes: 1 once started, 0 while cold."""
        return 1 if self.started else 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is not None:
            return self._executor
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        clock = time.perf_counter()
        executor = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context(method)
        )
        # Force the worker fully up so ``spawn_seconds`` is the honest
        # cold-start latency, not a deferred-fork illusion.
        executor.submit(_warmup).result()
        self.spawn_seconds = time.perf_counter() - clock
        self._executor = executor
        self.generation += 1
        self._emit(
            "pool_start",
            value=self.spawn_seconds,
            start_method=method,
            generation=self.generation,
        )
        return executor

    def submit(self, fn: Callable[[T], R], item: T) -> "Future[R]":
        """Run ``fn(item)`` on the worker; returns its Future.

        ``fn`` must be a module-level (picklable) function.  The future
        is process-local — callers must not pickle it; dropping it is
        safe (the task just runs to completion unobserved).
        """
        span = (
            nullcontext()
            if self._obs is None
            else self._obs.span(
                "parallel.submit",
                layer="parallel",
                fn=getattr(fn, "__qualname__", repr(fn)),
            )
        )
        with span:
            executor = self._ensure()
            self.dispatches += 1
            return executor.submit(fn, item)

    def shutdown(self) -> None:
        """Stop the worker now; the next submit re-arms lazily."""
        executor = self._executor
        if executor is None:
            return
        self._executor = None
        executor.shutdown(wait=True, cancel_futures=True)
        self._emit("pool_shutdown", generation=self.generation)

    def stats(self) -> dict:
        """JSON-able lifecycle counters (bench/CLI output)."""
        return {
            "started": self.started,
            "width": self.width,
            "generation": self.generation,
            "spawn_seconds": self.spawn_seconds,
            "dispatches": self.dispatches,
        }


_SHARED_POOL: WorkerPool | None = None


def get_pool() -> WorkerPool:
    """The process-wide shared pool handle (created cold, started lazily)."""
    global _SHARED_POOL
    if _SHARED_POOL is None:
        _SHARED_POOL = WorkerPool()
        atexit.register(_SHARED_POOL.shutdown)
    return _SHARED_POOL


def shutdown_pool() -> None:
    """Shut the shared pool down (no-op when it never started)."""
    if _SHARED_POOL is not None:
        _SHARED_POOL.shutdown()
