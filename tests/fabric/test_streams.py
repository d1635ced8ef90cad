"""Streaming worlds on the fabric: sources, fleet wiring, resume."""

import pickle

import numpy as np

import pytest

from repro.fabric import (
    STREAMING_THRESHOLD,
    ControlPlane,
    FleetConfig,
    StreamingJobSource,
    build_fleet,
)
from repro.fabric.fleet import PeregrineDriver
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


class TestStreamingJobSource:
    def test_matches_eager_generator(self):
        source = StreamingJobSource(
            seed=3, days=3, jobs_per_day=50,
            config=ScopeWorkloadConfig(n_recurring_templates=30),
        )
        eager = ScopeWorkloadGenerator(
            rng=3, config=ScopeWorkloadConfig(n_recurring_templates=30)
        ).generate(n_days=3)
        for day in range(3):
            assert source.get(day) == list(eager.by_day(day))

    def test_day_cache_capacity_one(self):
        source = StreamingJobSource(seed=0, days=3, jobs_per_day=50)
        assert source.get(1) is source.get(1)
        first = source.get(1)
        source.get(2)
        assert source.get(1) is not first  # regenerated, not hoarded

    def test_out_of_range_days_empty(self):
        source = StreamingJobSource(seed=0, days=2, jobs_per_day=50)
        assert source.get(2, []) == []
        assert source.get(-1, []) == []
        assert source.get(5) is None

    def test_pairs_view_head_limit(self):
        source = StreamingJobSource(seed=0, days=2, jobs_per_day=50)
        pairs = source.pairs(head=4)
        day = pairs.get(0)
        assert len(day) == 4
        full = [(j.job_id, j.plan) for j in source.get(0)[:4]]
        assert day == full
        assert pairs.get(9, []) == []

    def test_pickle_round_trip_replays(self):
        source = StreamingJobSource(seed=5, days=3, jobs_per_day=50)
        want = [j.job_id for j in source.get(2)]
        clone = pickle.loads(pickle.dumps(source))
        assert [j.job_id for j in clone.get(2)] == want

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            StreamingJobSource(seed=0, days=0, jobs_per_day=10)


class TestFleetStreaming:
    def test_resolve_streaming_threshold(self):
        assert not FleetConfig().resolve_streaming()
        assert FleetConfig(
            jobs_per_day=STREAMING_THRESHOLD
        ).resolve_streaming()
        assert FleetConfig(jobs_per_day=8, streaming=True).resolve_streaming()
        assert not FleetConfig(
            jobs_per_day=10**6, streaming=False
        ).resolve_streaming()

    def test_streaming_fleet_runs_and_ingests_full_days(self, tmp_path):
        # ~0.6 MiB of columns per day: the second day pushes the first
        # out of the 1 MiB budget.
        config = FleetConfig(
            days=2,
            jobs_per_day=6000,
            include=("peregrine", "steering"),
            streaming=True,
            repo_memory_budget_mb=1,
            repo_spill_dir=str(tmp_path / "chunks"),
        )
        plane = ControlPlane()
        build_fleet(plane, config)
        plane.run_days(2)
        driver = next(
            b.driver
            for b in plane.bindings
            if isinstance(b.driver, PeregrineDriver)
        )
        # the repository saw the full stream, not the service head
        assert len(driver.repo) > 2 * config.service_jobs_per_day
        assert driver.repo.days() == [0, 1]
        assert driver.repo.chunk_stats()["spilled_chunks"] >= 1
        steering = next(
            b.driver for b in plane.bindings if b.name == "steering"
        )
        # the plan-facing service sampled only each day's head
        assert steering.jobs_seen == 2 * config.service_jobs_per_day
        plane.close()

    def test_streaming_checkpoint_resume_identical(self, tmp_path):
        def run(resume_from=None):
            config = FleetConfig(
                days=3,
                jobs_per_day=600,
                include=("peregrine", "steering"),
                streaming=True,
            )
            plane = ControlPlane()
            build_fleet(plane, config)
            if resume_from is None:
                plane.run_days(3)
            else:
                plane.run_days(1)
                blob = plane.checkpoint(tmp_path / "ckpt.bin")
                plane.close()
                plane = ControlPlane.restore(tmp_path / "ckpt.bin")
                plane.run_days(2)
            report = plane.report_bytes()
            plane.close()
            return report

        assert run() == run(resume_from="ckpt")


class TestDayBatchSource:
    def test_day_batch_cached_and_off_range_none(self):
        source = StreamingJobSource(
            seed=0, days=2, jobs_per_day=50, overlap=False
        )
        batch = source.day_batch(0)
        assert batch is source.day_batch(0)
        assert source.day_batch(2) is None
        assert source.day_batch(-1) is None

    def test_pairs_read_off_the_batch(self):
        source = StreamingJobSource(
            seed=4, days=2, jobs_per_day=60, overlap=False
        )
        legacy = ScopeWorkloadGenerator(
            rng=4, config=source.config
        )
        for day in range(2):
            pairs = source.pairs(head=10).get(day)
            jobs = legacy.day_jobs(day)[:10]
            assert [job_id for job_id, _plan in pairs] == [
                j.job_id for j in jobs
            ]
            assert [plan for _job_id, plan in pairs] == [
                j.plan for j in jobs
            ]
        assert source.pairs(head=10).get(5, "missing") == "missing"

    def test_overlap_fallback_is_local_and_identical(self, monkeypatch):
        # Pool submission failing must silently fall back to local
        # generation with the same bits.
        import repro.fabric.streams as streams

        def broken_pool():
            raise RuntimeError("no pool in this test")

        monkeypatch.setattr(streams, "get_pool", broken_pool)
        forced = StreamingJobSource(
            seed=6, days=2, jobs_per_day=50, overlap=True
        )
        plain = StreamingJobSource(
            seed=6, days=2, jobs_per_day=50, overlap=False
        )
        for day in range(2):
            theirs = plain.day_batch(day)
            mine = forced.day_batch(day)
            assert np.array_equal(mine.job_ids, theirs.job_ids)
            assert np.array_equal(mine.sig_names, theirs.sig_names)
        assert forced.prefetch_hits == 0

    def test_overlap_auto_disabled_under_pytest(self):
        # Prefetch is off under pytest unless REPRO_PARALLEL_FORCE is
        # set, so the auto mode must not spin up a pool inside the suite.
        import os

        source = StreamingJobSource(seed=0, days=2, jobs_per_day=50)
        if not os.environ.get("REPRO_PARALLEL_FORCE"):
            assert not source.overlap_enabled()

    def test_pickle_drops_pending_and_caches(self):
        source = StreamingJobSource(
            seed=1, days=2, jobs_per_day=50, overlap=False
        )
        source.day_batch(0)
        clone = pickle.loads(pickle.dumps(source))
        assert clone._batch_cache is None
        assert clone._pending is None
        assert np.array_equal(
            clone.day_batch(0).job_ids, source.day_batch(0).job_ids
        )

    @pytest.mark.skipif(
        "REPRO_PARALLEL_FORCE" not in __import__("os").environ,
        reason="needs the real worker pool (REPRO_PARALLEL_FORCE=1)",
    )
    def test_real_pool_prefetch_identical_and_engaged(self):
        plain = StreamingJobSource(
            seed=2, days=3, jobs_per_day=1200, overlap=False
        )
        overlapped = StreamingJobSource(
            seed=2, days=3, jobs_per_day=1200, overlap=True
        )
        for day in range(3):
            theirs = plain.day_batch(day)
            mine = overlapped.day_batch(day)
            for name, column in theirs.columns().items():
                assert np.array_equal(mine.col(name), column), name
        assert overlapped.prefetch_hits >= 1

    @pytest.mark.skipif(
        "REPRO_PARALLEL_FORCE" not in __import__("os").environ,
        reason="needs the real worker pool (REPRO_PARALLEL_FORCE=1)",
    )
    def test_checkpoint_resume_identical_under_overlap(self, tmp_path):
        def run(resume: bool):
            config = FleetConfig(
                days=3,
                jobs_per_day=1200,
                include=("peregrine", "steering"),
                streaming=True,
                overlap_prefetch=True,
            )
            plane = ControlPlane()
            build_fleet(plane, config)
            if not resume:
                plane.run_days(3)
            else:
                plane.run_days(1)
                plane.checkpoint(tmp_path / "ckpt.bin")
                plane.close()
                plane = ControlPlane.restore(tmp_path / "ckpt.bin")
                plane.run_days(2)
            report = plane.report_bytes()
            plane.close()
            return report

        assert run(resume=False) == run(resume=True)
