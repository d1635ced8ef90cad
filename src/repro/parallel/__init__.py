"""The fabric's one-worker process pool for next-day prefetch.

Every fleet generates each simulated day from its seed.  While
the services consume day ``d``, :class:`~repro.fabric.StreamingJobSource`
builds day ``d+1`` on a single worker process and ships it back as
flat arrays.  That overlap is the only use of a process pool here:
every analysis runs serially in-process.

- :class:`WorkerPool` — the lazily started single-worker pool
  (``submit``/``shutdown``/``stats``),
- :func:`get_pool` — the process-wide handle the control plane owns,
- :func:`shutdown_pool` — stop its worker (the next submit re-arms it),
- :data:`FORCE_ENV` — run the real pool even under pytest.
"""

from repro.parallel.pool import FORCE_ENV, WorkerPool, get_pool, shutdown_pool

__all__ = ["WorkerPool", "get_pool", "shutdown_pool", "FORCE_ENV"]
