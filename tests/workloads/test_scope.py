"""Tests for the SCOPE-like workload generator and its calibration."""

import pytest

from repro.engine import signature, template_signature
from repro.engine.signatures import enumerate_signatures
from repro.workloads import ScopeWorkloadConfig, ScopeWorkloadGenerator


@pytest.fixture(scope="module")
def workload():
    return ScopeWorkloadGenerator(rng=0).generate(n_days=5)


class TestConfigValidation:
    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            ScopeWorkloadConfig(recurring_fraction=1.5)
        with pytest.raises(ValueError):
            ScopeWorkloadConfig(pipeline_fraction=-0.1)
        with pytest.raises(ValueError):
            ScopeWorkloadConfig(n_recurring_templates=0)
        with pytest.raises(ValueError):
            ScopeWorkloadConfig(pipeline_length=(1, 4))
        with pytest.raises(ValueError):
            ScopeWorkloadConfig(pipeline_length=(3, 2))


class TestStructure:
    def test_jobs_sorted_by_submit_time(self, workload):
        hours = [j.submit_hour for j in workload.jobs]
        assert hours == sorted(hours)

    def test_job_lookup(self, workload):
        job = workload.jobs[0]
        assert workload.job(job.job_id) is job
        with pytest.raises(KeyError):
            workload.job("nope")

    def test_every_day_has_jobs(self, workload):
        for day in range(5):
            assert workload.by_day(day)

    def test_recurring_jobs_repeat_daily(self, workload):
        per_template = workload.by_template(0)
        assert len(per_template) == 5  # one instance per day

    def test_dependencies_reference_earlier_jobs(self, workload):
        for job in workload.jobs:
            for dep in job.depends_on:
                producer = workload.job(dep)
                assert producer.submit_hour <= job.submit_hour
                assert producer.day == job.day

    def test_pipeline_consumer_scans_producer_output(self, workload):
        consumers = [
            j
            for j in workload.jobs
            if j.depends_on and j.pipeline_id is not None
        ]
        assert consumers
        job = consumers[0]
        producer = workload.job(job.depends_on[0])
        assert f"out_t{producer.template_id}" in job.plan.tables()

    def test_derived_tables_registered(self, workload):
        derived = [
            t for t in workload.catalog.tables() if t.name.startswith("out_t")
        ]
        assert derived
        assert all(t.n_rows >= 1_000 for t in derived)

    def test_plans_reference_known_tables(self, workload):
        for job in workload.jobs:
            for table in job.plan.tables():
                assert table in workload.catalog

    def test_deterministic_given_seed(self):
        a = ScopeWorkloadGenerator(rng=3).generate(n_days=2)
        b = ScopeWorkloadGenerator(rng=3).generate(n_days=2)
        assert [j.job_id for j in a.jobs] == [j.job_id for j in b.jobs]
        assert [signature(j.plan) for j in a.jobs] == [
            signature(j.plan) for j in b.jobs
        ]


class TestRecurrenceSemantics:
    def test_same_template_same_signature_across_days(self, workload):
        instances = workload.by_template(0)
        templates = {template_signature(j.plan) for j in instances}
        assert len(templates) == 1

    def test_literals_drift_across_days(self, workload):
        instances = workload.by_template(0)
        strict = {signature(j.plan) for j in instances}
        assert len(strict) == len(instances)  # values differ every day

    def test_params_recorded_and_drifting(self, workload):
        instances = workload.by_template(0)
        values = [j.params["filter_value"] for j in instances]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_adhoc_jobs_have_no_template(self, workload):
        adhoc = [j for j in workload.jobs if not j.is_recurring]
        assert adhoc
        assert all(j.template_id is None for j in adhoc)


class TestCalibration:
    """The generator must reproduce the paper's workload statistics."""

    def test_recurring_fraction_above_60_percent(self, workload):
        assert workload.recurring_fraction() > 0.60

    def test_dependency_fraction_near_70_percent(self, workload):
        assert 0.60 <= workload.dependency_fraction() <= 0.80

    def test_shared_subexpression_fraction_near_40_percent(self, workload):
        day = workload.by_day(2)
        owners: dict[str, set] = {}
        for job in day:
            for sig, node in enumerate_signatures(job.plan).items():
                if node.size >= 2:
                    owners.setdefault(sig, set()).add(job.job_id)
        sharing = set()
        for group in owners.values():
            if len(group) > 1:
                sharing |= group
        fraction = len(sharing) / len(day)
        assert 0.25 <= fraction <= 0.60

    def test_shared_fragments_match_strictly_within_day(self, workload):
        # The whole point of fragments: same-day jobs share *strict*
        # signatures, enabling CloudViews-style reuse.
        day = workload.by_day(1)
        owners: dict[str, set] = {}
        for job in day:
            for sig, node in enumerate_signatures(job.plan).items():
                if node.size >= 2:
                    owners.setdefault(sig, set()).add(job.job_id)
        assert any(len(group) >= 2 for group in owners.values())
