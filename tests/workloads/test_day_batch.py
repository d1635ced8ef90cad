"""Pin: the fused columnar day path is bit-identical to the job list.

``ScopeWorkloadGenerator.day_batch`` must produce exactly what
``JobBatch.from_jobs(generator.day_jobs(day))`` produces — same job
order, pools, interning order, RNG advancement, and dependency rows —
across configurations, day-access patterns, and pickle round-trips.
This is the vectorized-generation twin of PR 7's stream-vs-eager gate:
any drift here silently forks the repository's view of the world.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.peregrine.repository import COLUMNS, JobBatch
from repro.engine.signatures import signatures
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


def assert_batches_identical(
    batch: JobBatch, ref: JobBatch, jobs: list | None = None
) -> None:
    """Every column equal (dtype included), and every plan it builds.

    With ``jobs`` (the list ``ref`` was built from), each plan code's
    tree must also equal the original job's plan and hash to the
    stored strict and template signatures.
    """
    assert batch.day == ref.day
    mine, theirs = batch.columns(), ref.columns()
    assert list(mine) == list(theirs) == list(COLUMNS)
    for name in COLUMNS:
        assert mine[name].dtype == theirs[name].dtype, name
        assert np.array_equal(mine[name], theirs[name]), name
    for code in range(ref.n_plans):
        assert batch.plan(code) == ref.plan(code)
    if jobs is not None:
        _codes, first_rows = np.unique(ref.plan_codes, return_index=True)
        for code, row in enumerate(first_rows.tolist()):
            plan = batch.plan(code)
            assert plan == jobs[row].plan
            sigs = signatures(plan)
            assert sigs.strict == batch.strict(code)
            assert sigs.template == batch.template(code)


CONFIGS = {
    "default": ScopeWorkloadConfig(),
    "instances4": ScopeWorkloadConfig(instances_per_template=4),
    "scale5000": ScopeWorkloadConfig.for_scale(5000),
}


class TestFusedDayBatch:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_bit_identical_to_from_jobs(self, name):
        config = CONFIGS[name]
        fused = ScopeWorkloadGenerator(rng=7, config=config)
        legacy = ScopeWorkloadGenerator(rng=7, config=config)
        for day in range(3):
            batch = fused.day_batch(day)
            jobs = legacy.day_jobs(day)
            assert_batches_identical(batch, JobBatch.from_jobs(jobs), jobs)

    def test_rng_states_advance_identically(self):
        fused = ScopeWorkloadGenerator(rng=7)
        legacy = ScopeWorkloadGenerator(rng=7)
        for day in range(3):
            fused.day_batch(day)
            legacy.day_jobs(day)
        assert fused._day_states.keys() == legacy._day_states.keys()
        for day, state in fused._day_states.items():
            assert state == legacy._day_states[day]

    def test_interleaves_with_day_jobs_and_random_access(self):
        config = ScopeWorkloadConfig()
        legacy = ScopeWorkloadGenerator(rng=11, config=config)
        refs = [
            JobBatch.from_jobs(legacy.day_jobs(day)) for day in range(4)
        ]
        mixed = ScopeWorkloadGenerator(rng=11, config=config)
        assert_batches_identical(mixed.day_batch(0), refs[0])
        assert [j.job_id for j in mixed.day_jobs(1)] == refs[1].job_id_list()
        assert_batches_identical(mixed.day_batch(2), refs[2])
        # random access backwards replays from the cached day state
        assert_batches_identical(mixed.day_batch(1), refs[1])
        assert_batches_identical(mixed.day_batch(3), refs[3])

    def test_pickle_roundtrip_replays_identically(self):
        generator = ScopeWorkloadGenerator(rng=5)
        refs = [
            JobBatch.from_jobs(
                ScopeWorkloadGenerator(rng=5).day_jobs(day)
            )
            for day in range(2)
        ]
        generator.day_batch(0)
        clone = pickle.loads(pickle.dumps(generator))
        assert_batches_identical(clone.day_batch(1), refs[1])
        assert_batches_identical(clone.day_batch(0), refs[0])

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            ScopeWorkloadGenerator(rng=1).day_batch(-1)

    def test_ingest_batch_matches_record_path(self):
        from repro.core.peregrine.repository import WorkloadRepository

        fused_repo = WorkloadRepository()
        record_repo = WorkloadRepository()
        fused_gen = ScopeWorkloadGenerator(rng=9)
        record_gen = ScopeWorkloadGenerator(rng=9)
        for day in range(2):
            fused_repo.ingest_batch(fused_gen.day_batch(day))
            for job in record_gen.day_jobs(day):
                record_repo.ingest_job(job)
        assert len(fused_repo) == len(record_repo)
        assert fused_repo.days() == record_repo.days()
        for day in range(2):
            assert (
                fused_repo.day_sharing_summary(day)
                == record_repo.day_sharing_summary(day)
            )


class TestLazyPlans:
    """Plan trees are built only when read, once per plan code."""

    def test_pairs_view_shares_one_tree_per_plan_code(self):
        from repro.fabric.streams import StreamingJobSource

        source = StreamingJobSource(
            seed=4, days=2, jobs_per_day=1200, overlap=False
        )
        view = source.pairs(head=200)
        first = view.get(0)
        second = view.get(0)
        batch = source.day_batch(0)
        assert len(first) == 200
        assert 0 < len(batch._plans) <= 200
        codes = batch.plan_codes[:200].tolist()
        for (job_id, plan), (again_id, again), code in zip(
            first, second, codes
        ):
            assert job_id == again_id
            assert plan is again
            assert plan is batch.plan(code)
        # recurring instances share a code, hence one tree
        assert len({id(plan) for _j, plan in first}) == len(set(codes))
        jobs = ScopeWorkloadGenerator(
            rng=4, config=source.config
        ).day_jobs(0)
        assert [(j.job_id, j.plan) for j in jobs[:200]] == first

    def test_day_batch_builds_no_trees(self):
        batch = ScopeWorkloadGenerator(rng=2).day_batch(0)
        assert batch._plans == {}
        assert len(batch.skeletons) < batch.n_plans
