"""Lifecycle tests for the single-worker WorkerPool (lazy, warm, re-armed)."""

import os

import pytest

from repro.parallel import WorkerPool, get_pool, shutdown_pool


def _pid_of(_: object) -> int:
    return os.getpid()


def _double(x: int) -> int:
    return x * 2


@pytest.fixture
def pool():
    p = WorkerPool()
    yield p
    p.shutdown()


class TestLazyStart:
    def test_construction_starts_nothing(self, pool):
        assert not pool.started
        assert pool.width == 0
        assert pool.generation == 0

    def test_first_dispatch_starts_the_pool(self, pool):
        assert pool.submit(_double, 21).result() == 42
        assert pool.started
        assert pool.width == 1
        assert pool.generation == 1
        assert pool.spawn_seconds > 0.0


class TestWarmReuse:
    def test_dispatches_reuse_the_same_workers(self, pool):
        pids = {pool.submit(_pid_of, k).result() for k in range(4)}
        # One worker serves every submit, and it is never the parent.
        assert len(pids) == 1
        assert os.getpid() not in pids
        assert pool.generation == 1
        assert pool.dispatches == 4


class TestShutdown:
    def test_shutdown_then_rearm(self, pool):
        pool.submit(_double, 1).result()
        pool.shutdown()
        assert not pool.started
        # The next submit transparently re-arms a fresh worker.
        assert pool.submit(_double, 3).result() == 6
        assert pool.started
        assert pool.generation == 2

    def test_shutdown_is_idempotent(self, pool):
        pool.shutdown()
        pool.shutdown()
        assert not pool.started


class TestSharedPool:
    def test_get_pool_returns_one_handle(self):
        assert get_pool() is get_pool()

    def test_shutdown_pool_leaves_handle_reusable(self):
        shared = get_pool()
        shared.submit(_double, 1).result()
        assert shared.started
        shutdown_pool()
        assert not shared.started
        assert get_pool() is shared

    def test_shutdown_pool_without_start_is_a_noop(self):
        shutdown_pool()
        shutdown_pool()


class TestStats:
    def test_stats_shape(self, pool):
        for x in (1, 2, 3):
            pool.submit(_double, x).result()
        assert pool.stats() == {
            "started": True,
            "width": 1,
            "generation": 1,
            "spawn_seconds": pool.spawn_seconds,
            "dispatches": 3,
        }
        assert pool.spawn_seconds > 0.0


class TestObsWiring:
    def test_pool_lifecycle_events_land_in_obs(self, pool):
        from repro.obs import ObservabilityRuntime

        obs = ObservabilityRuntime()
        pool.bind(obs)
        pool.submit(_double, 4).result()
        pool.shutdown()
        kinds = [e.kind for e in obs.events.events if e.layer == "parallel"]
        assert "pool_start" in kinds
        assert "pool_shutdown" in kinds
        names = [s.name for s in obs.tracer.spans]
        assert "parallel.submit" in names
