"""Columnar JobTable: batch ingest, chunk spill, and manifest pickles.

The repository rewrite must be invisible to existing callers — same
records, same statistics, same errors — while adding the memory-bounded
behaviours these tests pin: cold chunks spill and reload losslessly,
``job()`` after evict equals before, batch ingest matches per-job
ingest byte-for-byte, and pickles carry manifests instead of worlds.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.peregrine import JobBatch, WorkloadRepository, analyze
from repro.core.peregrine.repository import COLUMNS, _hash_ids
from repro.engine import Scan
from repro.workloads.scope import Job, ScopeWorkloadConfig, ScopeWorkloadGenerator


@pytest.fixture(scope="module")
def workload():
    config = ScopeWorkloadConfig(n_recurring_templates=60)
    return ScopeWorkloadGenerator(rng=11, config=config).generate(n_days=4)


@pytest.fixture(scope="module")
def reference(workload):
    return WorkloadRepository().ingest(workload)


def _batched(workload, **repo_kwargs):
    repo = WorkloadRepository(**repo_kwargs)
    for day in range(4):
        repo.ingest_batch(JobBatch.from_jobs(list(workload.by_day(day))))
    return repo


class TestHashing:
    def test_hash_is_width_independent(self):
        ids = ["d000-t000", "a-much-longer-job-identifier-xyz", "x"]
        batch = _hash_ids(ids)
        for i, job_id in enumerate(ids):
            assert _hash_ids([job_id])[0] == batch[i]

    def test_distinct_ids_distinct_hashes(self):
        ids = [f"d{d:03d}-t{t:03d}" for d in range(50) for t in range(50)]
        assert len(np.unique(_hash_ids(ids))) == len(ids)


class TestBatchIngest:
    def test_batch_matches_per_job_analysis(self, workload, reference):
        batched = _batched(workload)
        assert dataclasses.asdict(analyze(batched)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_batch_matches_per_job_records(self, workload, reference):
        batched = _batched(workload)
        assert len(batched) == len(reference)
        assert batched.days() == reference.days()
        for got, want in zip(batched.records, reference.records):
            assert got == want

    def test_job_lookup_after_batch(self, workload, reference):
        batched = _batched(workload)
        job_id = workload.by_day(2)[3].job_id
        assert batched.job(job_id) == reference.job(job_id)

    def test_duplicate_across_batches_rejected(self, workload):
        repo = _batched(workload)
        with pytest.raises(ValueError, match="already ingested"):
            repo.ingest_batch(JobBatch.from_jobs(list(workload.by_day(1))))

    def test_duplicate_within_batch_rejected(self, workload):
        jobs = list(workload.by_day(0))
        with pytest.raises(ValueError, match="already ingested"):
            WorkloadRepository().ingest_batch(jobs + [jobs[0]])

    def test_duplicate_against_per_job_ingest_rejected(self, workload):
        repo = WorkloadRepository()
        repo.ingest_job(workload.by_day(0)[0])
        with pytest.raises(ValueError, match="already ingested"):
            repo.ingest_batch(list(workload.by_day(0)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            JobBatch.from_jobs([])

    def test_mixed_day_batch_rejected(self, workload):
        jobs = [workload.by_day(0)[0], workload.by_day(1)[0]]
        with pytest.raises(ValueError, match="per-day"):
            JobBatch.from_jobs(jobs)


class TestSpill:
    def test_spill_reload_round_trip(self, workload, reference, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        stats = repo.chunk_stats()
        assert stats["spilled_chunks"] >= 3  # only the open day stays hot
        # job() after evict == before (and == the in-memory reference)
        for day in range(4):
            job_id = workload.by_day(day)[1].job_id
            assert repo.job(job_id) == reference.job(job_id)
        assert repo.chunk_stats()["loads"] >= 3

    def test_spilled_analysis_identical(self, workload, reference, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        assert dataclasses.asdict(analyze(repo)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_budget_keeps_cold_chunks_out(self, workload, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        assert repo.chunk_stats()["hot_chunks"] == 1
        repo.by_day(0)  # pages day 0 back in, evicts another chunk
        assert repo.chunk_stats()["hot_chunks"] <= 2

    def test_analyze_after_spill_never_reloads_cached_days(self, tmp_path):
        generator = ScopeWorkloadGenerator(rng=5, config=ScopeWorkloadConfig())
        repo = WorkloadRepository(
            memory_budget_bytes=1, spill_dir=str(tmp_path / "chunks")
        )
        for day in range(3):
            repo.ingest_batch(generator.day_batch(day))
        assert repo.chunk_stats()["spilled_chunks"] >= 1
        first = analyze(repo)
        loads_after_first = repo.chunk_stats()["loads"]
        second = analyze(repo)
        assert pickle.dumps(first) == pickle.dumps(second)
        # the cached per-day summaries answered without paging any
        # chunk back in
        assert repo.chunk_stats()["loads"] == loads_after_first
        # a new day only ever summarizes itself
        repo.ingest_batch(generator.day_batch(3))
        loads_before = repo.chunk_stats()["loads"]
        analyze(repo)
        assert repo.chunk_stats()["loads"] <= loads_before + 1

    def test_no_spill_without_spill_dir(self, workload):
        repo = _batched(workload, memory_budget_bytes=1)
        assert repo.chunk_stats()["spilled_chunks"] == 0
        assert repo.chunk_stats()["hot_chunks"] == 4


class TestPickling:
    def test_inline_pickle_round_trip(self, workload, reference):
        clone = pickle.loads(pickle.dumps(reference))
        assert len(clone) == len(reference)
        for got, want in zip(clone.records, reference.records):
            assert got == want
        assert dataclasses.asdict(analyze(clone)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_manifest_pickle_round_trip(self, workload, reference, tmp_path):
        repo = _batched(
            workload,
            memory_budget_bytes=50_000,
            spill_dir=tmp_path / "chunks",
        )
        blob = pickle.dumps(repo)
        # Manifest mode: the pickle references chunk files, it does not
        # embed every closed day.
        inline_blob = pickle.dumps(_batched(workload))
        assert len(blob) < len(inline_blob)
        clone = pickle.loads(blob)
        job_id = workload.by_day(1)[0].job_id
        assert clone.job(job_id) == reference.job(job_id)
        assert dataclasses.asdict(analyze(clone)) == dataclasses.asdict(
            analyze(reference)
        )


class TestRepositoryViews:
    def test_records_view_indexing(self, workload, reference):
        batched = _batched(workload)
        n = len(batched)
        assert batched.records[0] == reference.records[0]
        assert batched.records[n - 1] == reference.records[n - 1]
        assert batched.records[-1] == reference.records[n - 1]
        assert batched.records[5:8] == reference.records[5:8]
        with pytest.raises(IndexError):
            batched.records[n]

    def test_days_cached_and_invalidated(self, workload):
        repo = WorkloadRepository()
        for job in workload.by_day(0):
            repo.ingest_job(job)
        first = repo.days()
        assert repo.days() == [0]
        repo.ingest_job(workload.by_day(1)[0])
        assert repo.days() == [0, 1]
        assert first == [0]  # caller's copy untouched

    def test_by_day_returns_fresh_list(self, workload):
        repo = _batched(workload)
        got = repo.by_day(2)
        got.clear()
        assert len(repo.by_day(2)) == len(workload.by_day(2))

    def test_reopening_a_closed_day(self, workload, reference):
        repo = WorkloadRepository()
        day0 = list(workload.by_day(0))
        day1 = list(workload.by_day(1))
        repo.ingest_batch(day0[:10])
        repo.ingest_batch(day1)       # closes day 0
        repo.ingest_batch(day0[10:])  # reopens it
        for job in day0:
            assert repo.job(job.job_id) == reference.job(job.job_id)
        assert [r.job_id for r in repo.by_day(1)] == [
            j.job_id for j in day1
        ]


class TestChunkFormat:
    """A day chunk is flat arrays: spilled, reloaded and pickled as such."""

    def test_nbytes_is_the_column_bytes(self, workload):
        repo = _batched(workload)
        for day in range(4):
            chunk = repo._table.chunk(day)
            columns = chunk.columns()
            assert list(columns) == list(COLUMNS)
            assert chunk.nbytes() == sum(a.nbytes for a in columns.values())

    def test_nbytes_tracks_per_job_appends(self, workload):
        repo = WorkloadRepository()
        for job in workload.by_day(0)[:40]:
            repo.ingest_job(job)
        chunk = repo._table.chunk(0)
        assert chunk.nbytes() == sum(
            a.nbytes for a in chunk.columns().values()
        )

    def test_spill_file_is_plain_arrays(self, workload, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        files = sorted((tmp_path / "chunks").iterdir())
        assert [f.name for f in files] == [
            f"day-{day:05d}.npz" for day in range(3)
        ]
        for path in files:
            with np.load(path, allow_pickle=False) as data:
                assert sorted(data.files) == sorted(COLUMNS)
                for name in data.files:
                    assert data[name].dtype != object

    def test_reload_never_unpickles(self, workload, reference, tmp_path,
                                    monkeypatch):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a chunk reload unpickled an object")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        job_id = workload.by_day(0)[3].job_id
        assert repo.job(job_id) == reference.job(job_id)
        assert repo.chunk_stats()["loads"] >= 1

    def test_reopened_spilled_day_matches_unspilled_twin(
        self, workload, tmp_path
    ):
        day0 = list(workload.by_day(0))
        day1 = list(workload.by_day(1))
        spilled = WorkloadRepository(
            memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        twin = WorkloadRepository()
        for repo in (spilled, twin):
            repo.ingest_batch(JobBatch.from_jobs(day0[:25]))
            repo.ingest_batch(JobBatch.from_jobs(day1))  # closes day 0
        assert 0 in spilled._table.chunk_files
        assert 0 not in spilled._table.chunks  # day 0 lives on disk
        for repo in (spilled, twin):
            repo.ingest_batch(JobBatch.from_jobs(day0[25:]))  # reopens it
        assert dataclasses.asdict(analyze(spilled)) == dataclasses.asdict(
            analyze(twin)
        )
        assert spilled.day_sharing_summary(0) == twin.day_sharing_summary(0)
        for got, want in zip(spilled.by_day(0), twin.by_day(0)):
            assert got == want
        assert [r.job_id for r in spilled.by_day(0)] == [
            j.job_id for j in day0
        ]

    def test_pickled_chunk_holds_no_engine_objects(self, workload):
        repo = _batched(workload)
        chunk = repo._table.chunk(1)
        blob = pickle.dumps(chunk)
        assert b"repro.engine" not in blob
        clone = pickle.loads(blob)
        assert clone.nbytes() == chunk.nbytes()
        for name, column in chunk.columns().items():
            assert np.array_equal(clone.col(name), column)
        assert clone.record(7) == chunk.record(7)

    def test_pickled_batch_holds_no_engine_objects(self, workload):
        batch = JobBatch.from_jobs(list(workload.by_day(2)))
        batch.plan(0)  # the lazily built tree cache never travels
        blob = pickle.dumps(batch)
        assert b"repro.engine" not in blob
        clone = pickle.loads(blob)
        assert clone._plans == {}
        assert clone.plan(0) == batch.plan(0)


def tiny_batch(
    day: int,
    sig_names: list[str],
    sig_sizes: list[int],
    n_jobs: int = 2,
) -> JobBatch:
    """A one-plan batch with a hand-controlled signature pool."""
    plan = Scan(f"t{day}")
    batch = JobBatch.from_jobs(
        [
            Job(job_id=f"d{day}-j{k}", plan=plan, submit_hour=24.0 * day + k)
            for k in range(n_jobs)
        ]
    )
    batch.sig_names = np.asarray(sig_names, dtype="S")
    batch.sig_sizes = np.asarray(sig_sizes, dtype=np.uint32)
    batch.sig_counts = np.asarray([len(sig_names)], dtype=np.uint32)
    batch.sig_codes = np.arange(len(sig_names), dtype=np.uint32)
    return batch


class TestGlobalJobIndex:
    def test_cross_day_duplicate_detected_via_merged_index(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["aa"], [2]))
        duplicate = tiny_batch(1, ["bb"], [2])
        duplicate.job_ids = ["d0-j0", "d1-j1"]
        with pytest.raises(ValueError, match="already ingested"):
            repo.ingest_batch(duplicate)

    def test_find_after_many_days_and_restore(self):
        repo = WorkloadRepository()
        for day in range(5):
            repo.ingest_batch(tiny_batch(day, ["aa"], [2]))
        assert repo.job("d3-j1").job_id == "d3-j1"
        clone = pickle.loads(pickle.dumps(repo))
        assert clone._table._global_index is None
        assert clone.job("d3-j1").job_id == "d3-j1"
        with pytest.raises(KeyError):
            clone.job("d9-j0")
