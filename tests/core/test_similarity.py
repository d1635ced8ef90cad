"""Tests for the plan similarity index."""

import numpy as np
import pytest

from repro.core.peregrine import SimilarityIndex, plan_embedding
from repro.engine import Aggregate, Filter, Join, Predicate, Project, Scan


def fragment(value, table="fact"):
    return Filter(Scan(table), (Predicate("a0", "<=", value),))


@pytest.fixture
def index():
    idx = SimilarityIndex(["fact", "dim", "other"])
    idx.add(Join(fragment(10.0), Scan("dim"), "key", "key"))
    idx.add(Aggregate(fragment(10.0), ("a0",)))
    idx.add(Project(Scan("other"), ("a0",)))
    return idx


class TestEmbedding:
    def test_embedding_is_interpretable_shape(self):
        plan = Join(fragment(1.0), Scan("dim"), "key", "key")
        vec = plan_embedding(plan, ["fact", "dim"])
        # 6 operator counts + 2 table flags + predicates + depth + size
        assert vec.shape == (11,)
        assert vec[0] == 2.0  # two scans
        assert vec[3] == 1.0  # one join

    def test_identical_plans_embed_identically(self):
        a = plan_embedding(fragment(5.0), ["fact"])
        b = plan_embedding(fragment(99.0), ["fact"])  # literal ignored
        np.testing.assert_array_equal(a, b)


class TestIndex:
    def test_exact_template_distance_zero(self, index):
        match = index.nearest(Join(fragment(77.0), Scan("dim"), "key", "key"))
        assert match is not None
        assert match.distance == 0.0

    def test_near_miss_finds_closest_structure(self, index):
        # A join template with one extra project: closest to the join.
        novel = Project(
            Join(fragment(5.0), Scan("dim"), "key", "key"), ("a0",)
        )
        match = index.nearest(novel)
        assert match is not None
        assert match.distance > 0.0
        assert "Join" in str(match.representative)

    def test_max_distance_cutoff(self, index):
        unrelated = Aggregate(
            Join(
                Join(Scan("other"), Scan("other"), "key", "key"),
                Scan("other"),
                "key",
                "key",
            ),
            (),
        )
        assert index.nearest(unrelated, max_distance=0.1) is None
        assert index.nearest(unrelated) is not None  # unbounded still answers

    def test_neighbours_sorted(self, index):
        novel = Aggregate(fragment(3.0), ("a1",))
        matches = index.neighbours(novel, k=3)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)
        assert len(matches) == 3

    def test_empty_index_returns_none(self):
        idx = SimilarityIndex(["fact"])
        assert idx.nearest(fragment(1.0)) is None
        assert idx.neighbours(fragment(1.0)) == []

    def test_duplicate_add_is_idempotent(self, index):
        before = len(index)
        index.add(Join(fragment(123.0), Scan("dim"), "key", "key"))
        assert len(index) == before

    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityIndex([])
        idx = SimilarityIndex(["fact"])
        idx.add(fragment(1.0))
        with pytest.raises(ValueError):
            idx.neighbours(fragment(1.0), k=0)

    def test_real_workload_adhoc_jobs_route_to_templates(self, world):
        workload = world["workload"]
        vocabulary = [t.name for t in workload.catalog.tables()]
        index = SimilarityIndex(vocabulary)
        for job in workload.jobs:
            if job.is_recurring and job.day < 4:
                index.add(job.plan)
        adhoc = [j for j in workload.jobs if not j.is_recurring][:20]
        matches = [index.nearest(j.plan) for j in adhoc]
        assert all(m is not None for m in matches)

    def test_bulk_add_matches_sequential_adds(self, world):
        plans = [job.plan for job in world["workload"].jobs[:60]]
        vocabulary = [t.name for t in world["catalog"].tables()]
        bulk_index = SimilarityIndex(vocabulary)
        bulk_templates = bulk_index.bulk_add(plans)
        loop_index = SimilarityIndex(vocabulary)
        loop_templates = [loop_index.add(plan) for plan in plans]
        assert bulk_templates == loop_templates
        assert bulk_index._templates == loop_index._templates
        np.testing.assert_array_equal(
            np.vstack(bulk_index._embeddings),
            np.vstack(loop_index._embeddings),
        )


class TestIncrementalMatrix:
    def test_matrix_grows_by_appending_rows(self, index):
        probe = Project(Scan("fact"), ("a0",))  # novel template: forces a build
        index.nearest(probe)
        assert index._matrix.shape[0] == 3
        before = index._matrix.copy()
        index.add(Filter(Scan("dim"), (Predicate("a1", "<", 1.0),)))
        index.nearest(probe)
        assert index._matrix.shape[0] == 4
        np.testing.assert_array_equal(index._matrix[:3], before)

    def test_incremental_build_equals_fresh_build(self):
        plans = [
            Join(fragment(10.0), Scan("dim"), "key", "key"),
            Aggregate(fragment(10.0), ("a0",)),
            Project(Scan("other"), ("a0",)),
            Filter(Scan("dim"), (Predicate("a0", ">", 2.0),)),
        ]
        probe = Project(Scan("fact"), ("a1",))
        fresh = SimilarityIndex(["fact", "dim", "other"])
        for plan in plans:
            fresh.add(plan)
        incremental = SimilarityIndex(["fact", "dim", "other"])
        for plan in plans[:2]:
            incremental.add(plan)
        incremental.nearest(probe)  # builds a 2-row matrix...
        for plan in plans[2:]:
            incremental.add(plan)   # ...which must grow, not rebuild wrong
        a, b = fresh.nearest(probe), incremental.nearest(probe)
        assert (a.template, a.distance) == (b.template, b.distance)
        np.testing.assert_array_equal(fresh._matrix, incremental._matrix)
        np.testing.assert_array_equal(fresh._scale, incremental._scale)
