"""Fabric ownership of the next-day prefetch pool.

The control plane owns the one-worker pool's lifecycle: the worker
starts lazily on the first prefetch, survives across ticks and
simulated days, is never checkpointed, and stops on ``close()``.
Resume after restore must re-arm the pool transparently and still
report byte-identically.
"""

import os
import pickle

from repro.fabric import ControlPlane, FleetConfig, build_fleet
from repro.fabric.store import checkpoint_bytes_v1, restore_v1
from repro.parallel import FORCE_ENV, shutdown_pool


def _worker_pid(_: object) -> int:
    return os.getpid()


def _streaming_plane(overlap: bool | None = True) -> ControlPlane:
    """A streaming Peregrine fleet whose day source prefetches."""
    plane = ControlPlane()
    build_fleet(
        plane,
        FleetConfig(
            days=3,
            jobs_per_day=300,
            include=("peregrine",),
            streaming=True,
            overlap_prefetch=overlap,
        ),
    )
    return plane


def _source(plane: ControlPlane):
    return plane.bindings[0].driver.jobs_by_day


class TestPoolOwnership:
    def test_plane_holds_the_shared_pool_cold(self):
        shutdown_pool()  # earlier tests may have warmed the shared pool
        with ControlPlane() as plane:
            assert plane.pool is ControlPlane().pool  # one shared pool
            assert not plane.pool.started  # lazy: no prefetch yet

    def test_pool_survives_across_fabric_days(self):
        with _streaming_plane() as plane:
            plane.run_days(1)
            generation = plane.pool.generation
            pid = plane.pool.submit(_worker_pid, None).result()
            plane.run_days(1)
            assert plane.pool.generation == generation  # no restart
            assert plane.pool.stats()["width"] == 1
            # Both days drew from one worker, never the parent.
            assert plane.pool.submit(_worker_pid, None).result() == pid
            assert pid != os.getpid()
            assert _source(plane).prefetch_hits >= 1

    def test_close_stops_the_pool(self):
        plane = _streaming_plane()
        plane.run_days(1)
        assert plane.pool.started
        plane.close()
        assert not plane.pool.started

    def test_context_manager_closes_on_exit(self):
        with _streaming_plane() as plane:
            plane.run_days(1)
            assert plane.pool.started
        assert not plane.pool.started


class TestCheckpointExclusion:
    def test_checkpoint_bytes_never_mention_the_pool(self):
        plane = _streaming_plane()
        plane.run_days(1)
        assert _source(plane)._pending is not None  # day 1 in flight
        blob = checkpoint_bytes_v1(plane)  # would fail pickling a Future
        assert b"WorkerPool" not in blob
        assert b"Future" not in blob
        plane.close()

    def test_restore_rearms_the_pool_lazily(self):
        plane = _streaming_plane()
        plane.run_days(1)
        blob = checkpoint_bytes_v1(plane)
        plane.close()  # interrupted: the worker is gone

        restored = restore_v1(pickle.loads(blob))
        assert restored.pool is plane.pool  # same shared handle...
        assert not restored.pool.started  # ...cold after the interrupt
        restored.run_days(1)  # the next prefetch re-arms it
        assert restored.pool.started
        restored.close()

    def test_resumed_run_reports_byte_identical(self):
        with _streaming_plane(overlap=False) as serial:
            serial.run_days(3)
            expected = serial.report_bytes()

        with _streaming_plane() as straight:
            straight.run_days(3)
            assert straight.report_bytes() == expected
            assert _source(straight).prefetch_hits == 2

        interrupted = _streaming_plane()
        interrupted.run_days(1)
        blob = checkpoint_bytes_v1(interrupted)
        interrupted.close()
        restored = restore_v1(pickle.loads(blob))
        restored.run_days(2)
        assert restored.report_bytes() == expected
        restored.close()


class TestSerialFabricStaysSerial:
    def test_pool_never_starts_without_force(self, monkeypatch):
        # Under pytest the auto prefetch mode stays off unless forced:
        # a whole streaming fabric run must not start a worker process.
        monkeypatch.delenv(FORCE_ENV, raising=False)
        shutdown_pool()
        with _streaming_plane(overlap=None) as plane:
            plane.run_days(2)
            assert not _source(plane).overlap_enabled()
            assert not plane.pool.started
