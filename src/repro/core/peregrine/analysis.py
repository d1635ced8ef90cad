"""Workload categorization and the headline statistics.

Produces the numbers the paper quotes for SCOPE: the fraction of
recurring jobs, the fraction of daily jobs sharing subexpressions with at
least one other job, and the fraction of jobs with inter-job
dependencies (experiment E4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.peregrine.repository import WorkloadRepository


@dataclass
class WorkloadStatistics:
    """Aggregate workload structure statistics."""

    n_jobs: int
    n_templates: int
    recurring_job_fraction: float
    shared_subexpression_fraction: float  # mean over days
    dependency_fraction: float
    jobs_per_template_p50: float
    top_shared_signatures: list[tuple[str, int]]  # (strict sig, #jobs) per day peak

    def summary_rows(self) -> list[tuple[str, float]]:
        """Rows for the E4 bench printout (metric name, value)."""
        return [
            ("jobs", float(self.n_jobs)),
            ("templates", float(self.n_templates)),
            ("recurring_fraction", self.recurring_job_fraction),
            ("shared_subexpr_fraction", self.shared_subexpression_fraction),
            ("dependency_fraction", self.dependency_fraction),
        ]


def _recurring_fraction(repo: WorkloadRepository) -> tuple[float, int, float]:
    """Jobs whose template appears on more than one day are recurring.

    Folded from the repository's incremental per-template counters —
    no record scan, so the cost is bounded by structural diversity
    (#unique template signatures), not workload size.
    """
    stats = repo.template_stats()
    recurring_jobs = sum(
        count for n_days, count in stats.values() if n_days > 1
    )
    counts = [count for _n_days, count in stats.values()]
    return (
        recurring_jobs / max(len(repo), 1),
        len(stats),
        float(np.median(counts)) if counts else 0.0,
    )


def shared_jobs_on_day(
    repo: WorkloadRepository, day: int, min_size: int = 2
) -> tuple[set[str], dict[str, set[str]]]:
    """Jobs on ``day`` sharing a non-trivial strict subexpression.

    Returns (sharing job ids, signature -> job ids for shared signatures).
    ``min_size`` excludes bare table scans, which share trivially.
    """
    owners: dict[str, set[str]] = defaultdict(set)
    for record in repo.by_day(day):
        for sig, node in record.subexpression_strict.items():
            if node.size >= min_size:
                owners[sig].add(record.job_id)
    shared_sigs = {s: jobs for s, jobs in owners.items() if len(jobs) > 1}
    sharing_jobs: set[str] = set()
    for jobs in shared_sigs.values():
        sharing_jobs |= jobs
    return sharing_jobs, shared_sigs


def _dependency_fraction(repo: WorkloadRepository) -> float:
    return repo.dependency_involved() / max(len(repo), 1)


def analyze(
    repo: WorkloadRepository,
    min_subexpr_size: int = 2,
) -> WorkloadStatistics:
    """Compute the full statistics bundle over everything ingested.

    Folds the repository's cached per-day sharing summaries, so
    re-analysis after each ingested day costs one day, not the whole
    history.
    """
    if len(repo) == 0:
        raise ValueError("repository is empty")
    recurring, n_templates, p50 = _recurring_fraction(repo)
    day_results = [
        repo.day_sharing_summary(day, min_subexpr_size)
        for day in repo.days()
    ]
    day_fractions = []
    best_shared: dict[str, int] = {}
    for _day, n_day_jobs, n_sharing, shared_sigs in day_results:
        day_fractions.append(n_sharing / max(n_day_jobs, 1))
        for sig, n_jobs in shared_sigs.items():
            best_shared[sig] = max(best_shared.get(sig, 0), n_jobs)
    top = sorted(best_shared.items(), key=lambda kv: -kv[1])[:10]
    return WorkloadStatistics(
        n_jobs=len(repo),
        n_templates=n_templates,
        recurring_job_fraction=recurring,
        shared_subexpression_fraction=float(np.mean(day_fractions)),
        dependency_fraction=_dependency_fraction(repo),
        jobs_per_template_p50=p50,
        top_shared_signatures=top,
    )
