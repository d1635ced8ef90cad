"""Streaming job sources: million-job worlds without the world in RAM.

:class:`StreamingJobSource` is the one way a fleet gets SCOPE jobs: a
day-addressable view over the seeded generator.  A tick generates its
day on demand as one fused columnar batch
(:meth:`ScopeWorkloadGenerator.day_batch`, straight into
:class:`~repro.core.peregrine.repository.JobBatch` columns, never a
per-job list), every driver on the plane shares the one-day cache, and
the previous day's data is garbage the moment the tick moves on.
Peregrine ingests the whole batch; :meth:`StreamingJobSource.pairs`
wraps it as the head-limited ``(job_id, plan)`` view the plan-facing
services (steering, CloudViews) consume, reading straight off the
batch columns.

When overlap is enabled, accessing day ``d`` also submits day ``d+1``'s
generation to the fabric's one-worker :class:`~repro.parallel.WorkerPool`:
the worker process replays the generator from the exact per-day RNG state
the parent hands it, so the prefetched batch is bit-identical to a
local build, and the returned day-``d+2`` RNG state keeps the parent's
replay chain seamless.  Futures are process-local and never pickled —
a checkpoint restored mid-overlap simply regenerates locally.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.parallel import FORCE_ENV, get_pool
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator

if TYPE_CHECKING:
    from repro.core.peregrine.repository import JobBatch

#: jobs/day below which auto mode never prefetches: a small day builds
#: faster locally than a worker round trip returns it.
PREFETCH_MIN_JOBS_PER_DAY = 1000

#: Worker-process generator cache: one generator per world identity,
#: reused across prefetch tasks so catalog/template construction and
#: the per-day replay states are paid once per worker, not per day.
_PREFETCH_GENERATORS: dict[tuple, ScopeWorkloadGenerator] = {}


def _prefetch_day(payload: tuple) -> tuple["JobBatch", object]:
    """Worker task: build one day's batch on the warm pool.

    ``payload`` is ``(seed, days, jobs_per_day, config, day, state)``
    where ``state`` is the parent's cached RNG state at the start of
    ``day`` (or ``None``, forcing a from-scratch replay).  Returns the
    batch plus the generator's RNG state at the start of ``day + 1`` so
    the parent can extend its own replay chain without regenerating.
    Generation is pure given the seed/config/day, so the result is
    bit-identical to a parent-local :meth:`day_batch` call.
    """
    seed, days, jobs_per_day, config, day, state = payload
    key = (seed, days, jobs_per_day)
    generator = _PREFETCH_GENERATORS.get(key)
    if generator is None:
        generator = ScopeWorkloadGenerator(rng=seed, config=config)
        _PREFETCH_GENERATORS[key] = generator
    if state is not None:
        generator._day_states.setdefault(day, state)
    batch = generator.day_batch(day)
    return batch, generator._day_states[day + 1]


class StreamingJobSource:
    """Day-addressable job feed over the seeded streaming generator.

    Days are generated on first access and cached until a different day
    is requested (capacity-1 cache: every driver ticks the same day, so
    one generation serves the whole fleet).  Days outside ``[0, days)``
    have no batch.  Pickles
    carry the generator (catalog + RNG day states, a few MB) but never
    cached days or in-flight prefetch futures, so checkpoints stay
    manifest-sized and a resumed source replays deterministically.

    ``overlap`` controls next-day prefetch on the shared worker pool:
    ``True``/``False`` force it, ``None`` (default) enables it only
    for days of at least :data:`PREFETCH_MIN_JOBS_PER_DAY` jobs, when
    more than one CPU is available, and when the run is not under
    pytest without ``REPRO_PARALLEL_FORCE`` (so small days, single-core
    boxes and test runs never pay pool startup for a prefetch that
    can't win anything).
    """

    def __init__(
        self,
        seed: int,
        days: int,
        jobs_per_day: int,
        config: ScopeWorkloadConfig | None = None,
        overlap: bool | None = None,
    ) -> None:
        if days < 1:
            raise ValueError("days must be >= 1")
        self.seed = seed
        self.days = days
        self.jobs_per_day = jobs_per_day
        self.config = config or ScopeWorkloadConfig.for_scale(jobs_per_day)
        self.overlap = overlap
        self._generator = ScopeWorkloadGenerator(
            rng=seed, config=self.config
        )
        self._batch_cache: tuple[int, "JobBatch"] | None = None
        self._pending: tuple[int, object] | None = None  # (day, Future)
        self.prefetch_hits = 0
        self.prefetch_misses = 0

    @property
    def generator(self) -> ScopeWorkloadGenerator:
        return self._generator

    @property
    def catalog(self):
        """The catalog (fully built at construction, shared fleet-wide)."""
        return self._generator.catalog

    # -- overlap ------------------------------------------------------------
    def overlap_enabled(self) -> bool:
        if self.overlap is not None:
            return self.overlap
        if self.jobs_per_day < PREFETCH_MIN_JOBS_PER_DAY:
            return False
        if (os.cpu_count() or 1) <= 1:
            return False
        return "PYTEST_CURRENT_TEST" not in os.environ or bool(
            os.environ.get(FORCE_ENV)
        )

    def _maybe_prefetch(self, day: int) -> None:
        if not 0 <= day < self.days or not self.overlap_enabled():
            return
        if self._pending is not None:
            return
        state = self._generator._day_states.get(day)
        payload = (
            self.seed, self.days, self.jobs_per_day, self.config, day, state,
        )
        try:
            future = get_pool().submit(_prefetch_day, payload)
        except Exception:
            return  # pool unavailable: next access generates locally
        self._pending = (day, future)

    def _take_prefetched(self, day: int) -> "JobBatch | None":
        pending = self._pending
        if pending is None:
            return None
        self._pending = None
        pending_day, future = pending
        if pending_day != day:
            future.cancel()
            return None
        try:
            batch, next_state = future.result()
        except Exception:
            self.prefetch_misses += 1
            return None  # worker died / pool torn down: regenerate
        self._generator._day_states.setdefault(day + 1, next_state)
        self.prefetch_hits += 1
        return batch

    # -- access -------------------------------------------------------------
    def day_batch(self, day: int) -> "JobBatch | None":
        """The day's fused columnar batch (``None`` off-range).

        Serves the capacity-1 batch cache, then a finished prefetch,
        then a local build — and queues day ``d+1``'s prefetch before
        returning, so generation overlaps the services consuming day
        ``d``.  All three paths are bit-identical.
        """
        if not 0 <= day < self.days:
            return None
        cached = self._batch_cache
        if cached is not None and cached[0] == day:
            return cached[1]
        batch = self._take_prefetched(day)
        if batch is None:
            batch = self._generator.day_batch(day)
        self._batch_cache = (day, batch)
        self._maybe_prefetch(day + 1)
        return batch

    def pairs(self, head: int | None = None) -> "JobPairsView":
        return JobPairsView(self, head)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_batch_cache"] = None
        state["_pending"] = None
        return state


class JobPairsView:
    """``(job_id, plan)`` pairs per day, optionally head-limited.

    The plan-facing services (steering, CloudViews) optimize every plan
    they see, so they sample the first ``head`` jobs of each day — the
    repository still ingests the full stream.  Pairs
    are read straight off the shared day batch's columns: plan trees
    are built only for the head, once per plan code, and every reader
    of the day gets the same objects (:meth:`JobBatch.plan`), so the
    plan-facing sample and the repository ingest share one generation
    per day.
    """

    def __init__(self, source: StreamingJobSource, head: int | None) -> None:
        self.source = source
        self.head = head

    @property
    def days(self) -> range:
        """The days the source serves, in order."""
        return range(self.source.days)

    def get(self, day: int, default=None):
        batch = self.source.day_batch(day)
        if batch is None or not len(batch):
            return default
        n = len(batch) if self.head is None else min(self.head, len(batch))
        ids = batch.col("job_ids")[:n].tolist()
        return [
            (job_id.decode(), batch.plan(code))
            for job_id, code in zip(ids, batch.plan_codes[:n].tolist())
        ]
