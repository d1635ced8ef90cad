"""Substrate perf harness: telemetry ingestion + plan-signature hashing.

Every autonomous service rides on two shared substrates — the telemetry
store (Direction 2) and subexpression signatures (Peregrine/CloudViews,
Section 4.2) — so their per-point and per-node costs multiply across all
experiments.  This harness measures both hot paths against faithful
re-implementations of the pre-columnar / pre-memoization code and writes
the numbers to ``BENCH_substrate.json`` so regressions are visible.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_substrate.py            # full
    PYTHONPATH=src python benchmarks/bench_perf_substrate.py --quick    # CI smoke

Benchmarks:

1. **bulk_ingest_sorted** — ingest N dimensioned points in timestamp
   order: one ``record_many`` batch vs the legacy per-point
   ``bisect``-insert loop.
2. **bulk_ingest_shuffled** — the same points in arrival (shuffled)
   order: append + lazy sort-on-read vs legacy mid-list inserts (the
   quadratic case, so the legacy side is size-capped).
3. **query_windows** — random range scans, dimension-filtered scans and
   binned aggregates over the ingested store.
4. **signature_trace** — the workload-repository analysis (full-plan
   strict+template signatures plus both subexpression maps) over a
   SCOPE-like recurring-job trace (the E4/E9 shape): memoized one-pass
   hashing vs the legacy hash-per-call tree walk.
5. **cloudviews_day** — the full CloudViews day (candidates, greedy
   selection, per-job matching and rewriting, true-cost accounting):
   the inverted strict-signature index vs the legacy pairwise
   node-equality flow, asserted byte-identical, instrumented with
   :mod:`repro.obs` spans so the rollup shows where the time goes.
6. **tracing_overhead** — the optimize -> compile -> execute hot path
   driven uninstrumented vs bound to an :mod:`repro.obs` runtime
   (spans + event replay + store flush included): the overhead fraction
   must stay under 10%.
7. **checkpoint_delta** — the fabric checkpoint write path: a full
   ``@2`` base snapshot vs an ``@2`` delta frame, measured every day of
   a steady-state fleet run with one explicit ``store.save`` per day.
   The final-day delta must be >= 5x smaller and faster to write.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cloudviews import CloudViews  # noqa: E402
from repro.core.cloudviews.reuse import (  # noqa: E402
    WRITE_COST_PER_BYTE,
    ReuseReport,
    ViewCandidate,
    _ViewAwareTruth,
)
from repro.engine import (  # noqa: E402
    ClusterExecutor,
    DefaultCardinalityEstimator,
    DefaultCostModel,
    Expression,
    Optimizer,
    Scan,
    TableDef,
    TrueCardinalityModel,
    compile_stages,
    signatures,
)
from repro.engine.expr import replace_subexpression  # noqa: E402
from repro.engine.signatures import enumerate_all_signatures  # noqa: E402
from repro.obs import ObservabilityRuntime  # noqa: E402
from repro.telemetry import Metric, TelemetryStore  # noqa: E402
from repro.telemetry.timing import SectionProfiler, Stopwatch  # noqa: E402
from repro.workloads import ScopeWorkloadGenerator  # noqa: E402

#: Jobs emitted per generated day by ScopeWorkloadGenerator(rng=0).
_JOBS_PER_DAY = 46


# -- legacy baselines (the pre-change implementations, verbatim shape) --------
class LegacyListStore:
    """The old store: per-metric sorted lists, one ``insert`` per point."""

    def __init__(self) -> None:
        self._points: dict[Metric, list] = defaultdict(list)
        self._timestamps: dict[Metric, list[float]] = defaultdict(list)

    def record(self, metric, timestamp, value, dimensions=None) -> None:
        if not np.isfinite(value):
            raise ValueError(f"non-finite telemetry value for {metric}")
        frozen = tuple(sorted(dimensions.items())) if dimensions else ()
        point = (float(timestamp), float(value), frozen)
        stamps = self._timestamps[metric]
        idx = bisect.bisect_right(stamps, point[0])
        stamps.insert(idx, point[0])
        self._points[metric].insert(idx, point)

    def points(self, metric, start=None, end=None, dimensions=None) -> list:
        stamps = self._timestamps.get(metric, [])
        all_points = self._points.get(metric, [])
        lo = 0 if start is None else bisect.bisect_left(stamps, start)
        hi = len(stamps) if end is None else bisect.bisect_right(stamps, end)
        selected = all_points[lo:hi]
        if dimensions:
            wanted = dimensions.items()
            selected = [
                p
                for p in selected
                if all(
                    next((v for k2, v in p[2] if k2 == k), None) == v
                    for k, v in wanted
                )
            ]
        return selected

    def series(self, metric, start=None, end=None, dimensions=None):
        pts = self.points(metric, start, end, dimensions)
        if not pts:
            return np.array([]), np.array([])
        return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])

    def aggregate(self, metric, bin_width, agg="mean", start=None, end=None,
                  dimensions=None):
        ts, vs = self.series(metric, start, end, dimensions)
        if ts.size == 0:
            return np.array([]), np.array([])
        bins = np.floor(ts / bin_width) * bin_width
        out_t, out_v = [], []
        fn = {"mean": np.mean, "sum": np.sum, "max": np.max}[agg]
        for b in np.unique(bins):
            mask = bins == b
            out_t.append(b)
            out_v.append(float(fn(vs[mask])))
        return np.array(out_t), np.array(out_v)


def _legacy_describe(node: Expression, mask_literals: bool) -> str:
    from repro.engine import Aggregate, Filter, Join, Project, Scan, Union

    if isinstance(node, Scan):
        return f"Scan:{node.table}"
    if isinstance(node, Filter):
        parts = []
        for p in node.predicates:
            value = "?" if mask_literals else f"{p.value!r}"
            parts.append(f"{p.column}{p.op}{value}")
        return f"Filter:{'&'.join(parts)}"
    if isinstance(node, Project):
        return f"Project:{','.join(node.columns)}"
    if isinstance(node, Join):
        return f"Join:{node.left_key}={node.right_key}"
    if isinstance(node, Aggregate):
        return f"Aggregate:{','.join(node.group_by)}"
    if isinstance(node, Union):
        return "Union"
    raise TypeError(type(node).__name__)


def _legacy_hash_tree(node: Expression, mask_literals: bool) -> str:
    child_hashes = "|".join(
        _legacy_hash_tree(child, mask_literals) for child in node.children
    )
    payload = f"{_legacy_describe(node, mask_literals)}({child_hashes})"
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def _legacy_analyze(plans: list[Expression]) -> int:
    """The pre-change repository ingest: four independent hash walks."""
    n_signatures = 0
    for plan in plans:
        _legacy_hash_tree(plan, True)
        _legacy_hash_tree(plan, False)
        strict_map: dict[str, Expression] = {}
        template_map: dict[str, Expression] = {}
        for node in plan.walk():
            strict_map.setdefault(_legacy_hash_tree(node, False), node)
        for node in plan.walk():
            template_map.setdefault(_legacy_hash_tree(node, True), node)
        n_signatures += len(strict_map) + len(template_map)
    return n_signatures


def _memoized_analyze(plans: list[Expression]) -> int:
    n_signatures = 0
    for plan in plans:
        strict_map, template_map = enumerate_all_signatures(plan)
        signatures(plan)
        n_signatures += len(strict_map) + len(template_map)
    return n_signatures


# -- benchmark data -----------------------------------------------------------
def _make_points(n_points: int, rng: np.random.Generator):
    """Timestamps, values and cycling machine/SKU dimension dicts."""
    timestamps = np.arange(n_points, dtype=float) * 0.1
    values = rng.uniform(0.0, 100.0, size=n_points)
    skus = ("gen4", "gen5", "gen6")
    machines = [
        {"machine": f"m{i:03d}", "sku": skus[i % len(skus)]} for i in range(90)
    ]
    dims = [machines[i % len(machines)] for i in range(n_points)]
    return timestamps, values, dims


def measure_bulk_ingest_sorted(n_points: int, profiler: SectionProfiler) -> dict:
    ts, vs, dims = _make_points(n_points, np.random.default_rng(0))

    legacy = LegacyListStore()
    with profiler.section("ingest_sorted/legacy"):
        for t, v, d in zip(ts, vs, dims):
            legacy.record(Metric.CPU_UTILIZATION, t, v, d)
    legacy_s = profiler.seconds("ingest_sorted/legacy")

    store = TelemetryStore()
    with profiler.section("ingest_sorted/columnar"):
        store.record_many(Metric.CPU_UTILIZATION, ts, vs, dims)
    new_s = profiler.seconds("ingest_sorted/columnar")
    assert len(store) == n_points
    return {
        "n_points": n_points,
        "legacy_seconds": legacy_s,
        "legacy_points_per_s": n_points / legacy_s,
        "new_seconds": new_s,
        "new_points_per_s": n_points / new_s,
        "speedup": legacy_s / new_s,
    }


def measure_bulk_ingest_shuffled(n_points: int, profiler: SectionProfiler) -> dict:
    # Mid-list inserts make the legacy path quadratic, so cap its size and
    # compare throughput at the capped size (generous to the baseline).
    n_legacy = min(n_points, 100_000)
    rng = np.random.default_rng(1)
    ts, vs, dims = _make_points(n_points, rng)
    order = rng.permutation(n_points)
    ts, vs = ts[order], vs[order]
    dims = [dims[i] for i in order]

    legacy = LegacyListStore()
    with profiler.section("ingest_shuffled/legacy"):
        for i in range(n_legacy):
            legacy.record(Metric.CPU_UTILIZATION, ts[i], vs[i], dims[i])
    legacy_s = profiler.seconds("ingest_shuffled/legacy")

    store = TelemetryStore()
    with profiler.section("ingest_shuffled/columnar"):
        store.record_many(Metric.CPU_UTILIZATION, ts, vs, dims)
        # Make the columnar side pay its deferred sort inside the clock.
        store.series(Metric.CPU_UTILIZATION, start=0.0, end=1.0)
    new_s = profiler.seconds("ingest_shuffled/columnar")
    legacy_rate = n_legacy / legacy_s
    new_rate = n_points / new_s
    return {
        "n_points": n_points,
        "n_points_legacy": n_legacy,
        "legacy_seconds": legacy_s,
        "legacy_points_per_s": legacy_rate,
        "new_seconds": new_s,
        "new_points_per_s": new_rate,
        "speedup": new_rate / legacy_rate,
    }


def measure_query_windows(
    n_points: int, n_queries: int, profiler: SectionProfiler
) -> dict:
    ts, vs, dims = _make_points(n_points, np.random.default_rng(2))
    store = TelemetryStore()
    store.record_many(Metric.CPU_UTILIZATION, ts, vs, dims)
    legacy = LegacyListStore()
    for t, v, d in zip(ts, vs, dims):
        legacy.record(Metric.CPU_UTILIZATION, t, v, d)

    span = float(ts[-1])
    rng = np.random.default_rng(3)
    starts = rng.uniform(0, span * 0.9, size=n_queries)
    widths = rng.uniform(span * 0.01, span * 0.1, size=n_queries)
    machines = [f"m{int(i):03d}" for i in rng.integers(0, 90, size=n_queries)]

    def _run(backend) -> None:
        for s, w, m in zip(starts, widths, machines):
            backend.series(Metric.CPU_UTILIZATION, start=s, end=s + w)
            backend.series(
                Metric.CPU_UTILIZATION,
                start=s,
                end=s + w,
                dimensions={"machine": m},
            )
            backend.aggregate(
                Metric.CPU_UTILIZATION, bin_width=w / 10, agg="mean",
                start=s, end=s + w,
            )

    with profiler.section("query_windows/legacy"):
        _run(legacy)
    with profiler.section("query_windows/columnar"):
        _run(store)
    legacy_s = profiler.seconds("query_windows/legacy")
    new_s = profiler.seconds("query_windows/columnar")
    return {
        "n_points": n_points,
        "n_queries": n_queries * 3,
        "legacy_seconds": legacy_s,
        "new_seconds": new_s,
        "speedup": legacy_s / new_s,
    }


def measure_signature_trace(n_jobs: int, profiler: SectionProfiler) -> dict:
    n_days = max(1, round(n_jobs / _JOBS_PER_DAY))
    with profiler.section("signature_trace/generate"):
        workload = ScopeWorkloadGenerator(rng=0).generate(n_days=n_days)
    plans = [job.plan for job in workload.jobs]

    with profiler.section("signature_trace/legacy"):
        legacy_count = _legacy_analyze(plans)
    with profiler.section("signature_trace/memoized"):
        new_count = _memoized_analyze(plans)
    assert new_count == legacy_count
    legacy_s = profiler.seconds("signature_trace/legacy")
    new_s = profiler.seconds("signature_trace/memoized")
    return {
        "n_jobs": len(plans),
        "n_signatures": new_count,
        "legacy_seconds": legacy_s,
        "legacy_jobs_per_s": len(plans) / legacy_s,
        "new_seconds": new_s,
        "new_jobs_per_s": len(plans) / new_s,
        "speedup": legacy_s / new_s,
    }


# -- legacy CloudViews (the pre-index pairwise flow, verbatim shape) ----------
class LegacyCloudViews(CloudViews):
    """The pre-change day flow: node-equality walks instead of indexes.

    Candidate enumeration mutates one shared owners dict per node (no
    sharding), containment is ``any(node == inner ...)`` over a full
    walk, matching re-walks every plan against every selected view, and
    rewriting runs one full ``replace_subexpression`` pass per view.
    """

    def candidates(self, jobs):
        owners: dict[str, ViewCandidate] = {}
        for job_id, plan in jobs:
            seen: set[str] = set()
            for node in plan.walk():
                sig = signatures(node).strict
                if sig in seen:
                    continue
                seen.add(sig)
                if node.size < self.min_size:
                    continue
                existing = owners.get(sig)
                if existing is None:
                    owners[sig] = ViewCandidate(
                        signature=sig,
                        expression=node,
                        job_ids=[job_id],
                        estimated_cost=self.est.cost(node).total,
                        estimated_bytes=self.est.output_bytes(node),
                    )
                elif job_id not in existing.job_ids:
                    existing.job_ids.append(job_id)
        return [
            c
            for c in owners.values()
            if c.occurrences >= self.min_occurrences and c.utility > 0
        ]

    def select(self, jobs):
        pool = sorted(
            self.candidates(jobs),
            key=lambda c: -c.utility / max(c.estimated_bytes, 1.0),
        )
        selected: list[ViewCandidate] = []
        spent = 0.0
        for candidate in pool:
            if len(selected) >= self.max_views:
                break
            if spent + candidate.estimated_bytes > self.budget_bytes:
                continue
            contained = any(
                self._contains(chosen.expression, candidate.expression)
                for chosen in selected
            )
            if contained:
                continue
            selected.append(candidate)
            spent += candidate.estimated_bytes
        return selected

    @staticmethod
    def _contains(outer: Expression, inner: Expression) -> bool:
        return any(node == inner for node in outer.walk())

    def _matches(self, plan, candidate) -> bool:
        if candidate.group is None:
            return self._contains(plan, candidate.expression)
        from repro.core.cloudviews.containment import rewrite_with_containment

        return rewrite_with_containment(plan, candidate.group) != plan

    def _apply(self, plan, candidate):
        if candidate.group is None:
            return self.rewrite(plan, [candidate])
        from repro.core.cloudviews.containment import rewrite_with_containment

        return rewrite_with_containment(plan, candidate.group)

    def rewrite(self, plan, selected):
        for candidate in sorted(selected, key=lambda c: -c.expression.size):
            plan = replace_subexpression(
                plan, candidate.expression, Scan(candidate.view_table)
            )
        return plan

    def run_day(self, jobs, true_cardinality,
                containment: bool = False) -> ReuseReport:
        selected = self.select(jobs)
        if containment:
            selected = self._add_containment_candidates(jobs, selected)
        truth = DefaultCostModel(self.catalog, true_cardinality)
        baseline = sum(truth.cost(plan).total for _, plan in jobs)

        day_catalog = self.catalog.clone()
        definitions: dict[str, Expression] = {}
        for candidate in selected:
            rows = max(1.0, true_cardinality.estimate(candidate.expression))
            true_bytes = truth.output_bytes(candidate.expression)
            day_catalog.add(
                TableDef(
                    name=candidate.view_table,
                    n_rows=int(rows),
                    columns=self._VIEW_COLUMNS,
                    row_bytes=max(1, int(true_bytes / rows)),
                )
            )
            definitions[candidate.view_table] = candidate.expression
        day_truth = _ViewAwareTruth(true_cardinality, definitions)
        day_cost = DefaultCostModel(day_catalog, day_truth)

        materialized: set[str] = set()
        reuse_total = 0.0
        for job_id, plan in jobs:
            pending = [
                c
                for c in selected
                if c.signature not in materialized and self._matches(plan, c)
            ]
            ready = [c for c in selected if c.signature in materialized]
            rewritten = plan
            for candidate in sorted(ready, key=lambda c: -c.expression.size):
                rewritten = self._apply(rewritten, candidate)
            cost = day_cost.cost(rewritten).total
            for candidate in pending:
                cost += WRITE_COST_PER_BYTE * day_cost.output_bytes(
                    candidate.expression
                )
                materialized.add(candidate.signature)
            reuse_total += cost
        return ReuseReport(
            n_jobs=len(jobs),
            n_views=len(selected),
            baseline_latency=baseline,
            reuse_latency=reuse_total,
            baseline_processing=baseline,
            reuse_processing=reuse_total,
            views=selected,
        )


def _report_key(report: ReuseReport) -> tuple:
    """Everything a ReuseReport says, as a comparable value."""
    return (
        report.n_jobs,
        report.n_views,
        report.baseline_latency,
        report.reuse_latency,
        report.baseline_processing,
        report.reuse_processing,
        tuple(
            (v.signature, tuple(v.job_ids), v.estimated_cost, v.estimated_bytes)
            for v in report.views
        ),
    )


def measure_cloudviews_day(n_jobs: int, profiler: SectionProfiler) -> dict:
    n_days = max(1, round(n_jobs / _JOBS_PER_DAY))
    with profiler.section("cloudviews_day/generate"):
        workload = ScopeWorkloadGenerator(rng=0).generate(n_days=n_days)
    jobs = [(job.job_id, job.plan) for job in workload.jobs]
    # Warm the signature memos so neither side is charged first-hash costs.
    for _, plan in jobs:
        enumerate_all_signatures(plan)
    est = DefaultCostModel(
        workload.catalog, DefaultCardinalityEstimator(workload.catalog)
    )
    truth = TrueCardinalityModel(workload.catalog, seed=5)

    # Legacy pairwise matching scales with jobs x views x nodes; run it
    # at full size (capped at 10k jobs) for an honest same-size
    # comparison, and fall back to per-job throughput if a larger run
    # ever trims the legacy side.
    n_legacy = min(len(jobs), 10_000)
    legacy = LegacyCloudViews(workload.catalog, est)
    with profiler.section("cloudviews_day/legacy"):
        legacy_report = legacy.run_day(jobs[:n_legacy], truth)

    obs = ObservabilityRuntime()
    indexed = CloudViews(workload.catalog, est, obs=obs)
    with profiler.section("cloudviews_day/indexed"):
        report = indexed.run_day(jobs, truth)

    # The indexed flow must reproduce the legacy report byte for byte
    # (checked untimed, at the size the legacy side actually ran).
    if n_legacy == len(jobs):
        assert _report_key(report) == _report_key(legacy_report)
    else:
        indexed_small = CloudViews(workload.catalog, est).run_day(
            jobs[:n_legacy], truth
        )
        assert _report_key(indexed_small) == _report_key(legacy_report)

    legacy_s = profiler.seconds("cloudviews_day/legacy")
    new_s = profiler.seconds("cloudviews_day/indexed")
    legacy_rate = n_legacy / legacy_s
    new_rate = len(jobs) / new_s
    span_seconds: dict[str, float] = defaultdict(float)
    for span in obs.tracer.spans:
        span_seconds[span.name] += span.wall_seconds
    return {
        "n_jobs": len(jobs),
        "n_jobs_legacy": n_legacy,
        "n_views": report.n_views,
        "latency_improvement": report.latency_improvement,
        "legacy_seconds": legacy_s,
        "legacy_jobs_per_s": legacy_rate,
        "new_seconds": new_s,
        "new_jobs_per_s": new_rate,
        "speedup": new_rate / legacy_rate,
        "identical_reports": True,
        "span_seconds": dict(sorted(span_seconds.items())),
    }


#: Acceptance bound on relative tracing overhead.
TRACING_OVERHEAD_THRESHOLD = 0.10


def measure_tracing_overhead(
    n_jobs: int, profiler: SectionProfiler, repeats: int = 5
) -> dict:
    """Optimize/compile/execute every plan: uninstrumented vs traced.

    The traced side pays for everything observability adds — span entry
    and exit (two stopwatches each), execution-report replay into the
    event log, and the final flush into the TelemetryStore.

    Measurement design, tuned for noisy shared machines where CPU
    contention comes in phases lasting well under one rep:

    - Each rep *interleaves* the two sides chunk by chunk (~50 jobs at
      a time), so baseline and traced sample the same contention phases
      and their ratio cancels common-mode slowdowns.
    - The reported overhead is the **minimum paired ratio** across
      reps: contention inflates a ratio's variance, so the cleanest rep
      is the one closest to the machine-independent truth.
    - The cyclic collector is disabled inside the timed region (with a
      full collect before each rep): GC pauses fire on whichever side
      happens to cross a global allocation threshold, charging it with
      garbage the other side produced.  pyperf does the same by
      default.
    """
    import gc

    n_days = max(1, round(n_jobs / _JOBS_PER_DAY))
    workload = ScopeWorkloadGenerator(rng=0).generate(n_days=n_days)
    plans = [job.plan for job in workload.jobs]
    catalog = workload.catalog
    cost = DefaultCostModel(catalog, DefaultCardinalityEstimator(catalog))
    chunk_size = 50

    def _drive_chunk(optimizer, executor, chunk) -> None:
        for plan in chunk:
            optimized = optimizer.optimize(plan).plan
            graph = compile_stages(optimized, cost)
            executor.run(graph)

    def _rep(obs: ObservabilityRuntime) -> tuple[float, float]:
        """One interleaved rep; returns (baseline_seconds, traced_seconds)."""
        base_opt = Optimizer(catalog)
        base_exec = ClusterExecutor(rng=0)
        traced_opt = Optimizer(catalog, obs=obs)
        traced_exec = ClusterExecutor(rng=0, obs=obs)
        base_total = traced_total = 0.0
        gc.collect()
        gc.disable()
        try:
            for i in range(0, len(plans), chunk_size):
                chunk = plans[i : i + chunk_size]
                with profiler.section("tracing_overhead/baseline"):
                    clock = Stopwatch().start()
                    _drive_chunk(base_opt, base_exec, chunk)
                    base_total += clock.stop()
                with profiler.section("tracing_overhead/traced"):
                    clock = Stopwatch().start()
                    _drive_chunk(traced_opt, traced_exec, chunk)
                    traced_total += clock.stop()
            with profiler.section("tracing_overhead/traced"):
                clock = Stopwatch().start()
                obs.flush()
                traced_total += clock.stop()
        finally:
            gc.enable()
        return base_total, traced_total

    _rep(ObservabilityRuntime())  # warm caches: neither side pays first-run costs
    baseline_runs: list[float] = []
    traced_runs: list[float] = []
    obs = ObservabilityRuntime()
    for _ in range(repeats):
        obs = ObservabilityRuntime()
        base_s, traced_s = _rep(obs)
        baseline_runs.append(base_s)
        traced_runs.append(traced_s)
    ratios = [t / b for b, t in zip(baseline_runs, traced_runs)]
    best = min(range(repeats), key=lambda i: ratios[i])
    baseline_s = baseline_runs[best]
    traced_s = traced_runs[best]
    overhead = ratios[best] - 1.0
    return {
        "n_jobs": len(plans),
        "repeats": repeats,
        "baseline_seconds": baseline_s,
        "traced_seconds": traced_s,
        "baseline_runs": baseline_runs,
        "traced_runs": traced_runs,
        "spans": len(obs.tracer.spans),
        "events": len(obs.events),
        "overhead_fraction": overhead,
        "threshold": TRACING_OVERHEAD_THRESHOLD,
        "within_threshold": overhead < TRACING_OVERHEAD_THRESHOLD,
    }


def measure_checkpoint_delta(run_days: int, profiler: SectionProfiler) -> dict:
    """Full ``@2`` base snapshot vs ``@2`` delta frame on the standard fleet.

    The bench world is the standard ``FleetConfig(days=7)`` fleet run
    for ``run_days`` days with one explicit ``store.save(plane)`` per
    day — a base frame at day 1, deltas after.  (Deliberately *not*
    ``attach_store``: that persists after every tick, so a daily save
    would find every service already clean and measure nothing.)  Once
    the 7-day workload horizon has passed, most drivers stop mutating:
    the delta frame carries only the genuinely dirty services, with
    references into their declared ``frozen_attrs`` input worlds
    replaced by symbolic tokens, while a base snapshot
    (:meth:`CheckpointStore.snapshot`, into a second store) re-pickles
    the whole fleet every day.  Size ratios use the final day's frames;
    time ratios use the minimum over the steady-state tail (scheduler
    jitter on a shared machine would make one-sample timings theater).
    The restored chain must reproduce the live fleet byte for byte.
    """
    import shutil
    import tempfile

    from repro.fabric import (
        CheckpointStore,
        ControlPlane,
        FleetConfig,
        build_fleet,
    )
    plane = ControlPlane()
    build_fleet(plane, FleetConfig(days=7))
    workdir = Path(tempfile.mkdtemp(prefix="bench_ckpt_"))
    store = CheckpointStore(workdir / "store")
    snapshots = CheckpointStore(workdir / "snapshots")
    days: list[dict] = []
    try:
        for _ in range(run_days):
            plane.run_days(1)
            # The chain's save first: a snapshot clears the dirty flags
            # the delta reads, but writes every service regardless.
            with profiler.section("checkpoint_delta/delta_v2"):
                clock = Stopwatch().start()
                result = store.save(plane)
                delta_s = clock.stop()
            with profiler.section("checkpoint_delta/snapshot_v2"):
                clock = Stopwatch().start()
                full = snapshots.snapshot(plane)
                full_s = clock.stop()
            days.append(
                {
                    "day": plane.day,
                    "kind": result.kind,
                    "full_bytes": full.bytes_written,
                    "full_seconds": full_s,
                    "delta_bytes": result.bytes_written,
                    "delta_seconds": delta_s,
                    "services_saved": len(result.saved),
                    "services_clean": len(result.clean),
                }
            )
        restored = CheckpointStore.load(store.path)
        assert restored.report_bytes() == plane.report_bytes(), (
            "restored fleet diverged from the live one"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first, last = days[0], days[-1]
    steady = [d for d in days if d["kind"] == "delta"][-5:]
    steady_full_s = min(d["full_seconds"] for d in steady)
    steady_delta_s = min(d["delta_seconds"] for d in steady)
    size_ratio = last["full_bytes"] / max(last["delta_bytes"], 1)
    time_ratio = steady_full_s / max(steady_delta_s, 1e-12)
    return {
        "world_days": 7,
        "run_days": run_days,
        "day_1": first,
        "day_last": last,
        "steady_full_seconds": steady_full_s,
        "steady_delta_seconds": steady_delta_s,
        "size_ratio": size_ratio,
        "time_ratio": time_ratio,
        "delta_5x_smaller": size_ratio >= 5.0,
        "delta_faster": time_ratio > 1.0,
        "resume_identical": True,
        "days": days,
    }


def run(n_points: int, n_jobs: int, n_queries: int, ckpt_days: int) -> dict:
    import os

    profiler = SectionProfiler()
    total = Stopwatch().start()
    results = {
        "bulk_ingest_sorted": measure_bulk_ingest_sorted(n_points, profiler),
        "bulk_ingest_shuffled": measure_bulk_ingest_shuffled(n_points, profiler),
        "query_windows": measure_query_windows(n_points, n_queries, profiler),
        "signature_trace": measure_signature_trace(n_jobs, profiler),
        "cloudviews_day": measure_cloudviews_day(n_jobs, profiler),
        "tracing_overhead": measure_tracing_overhead(n_jobs, profiler),
        "checkpoint_delta": measure_checkpoint_delta(ckpt_days, profiler),
    }
    return {
        "config": {
            "n_points": n_points,
            "n_jobs": n_jobs,
            "n_queries": n_queries,
            "ckpt_days": ckpt_days,
        },
        "cpu_count": os.cpu_count(),
        "results": results,
        "sections": profiler.report(),
        "total_seconds": total.stop(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=1_000_000,
                        help="points for the ingestion/query benchmarks")
    parser.add_argument("--jobs", type=int, default=10_000,
                        help="jobs in the signature trace")
    parser.add_argument("--queries", type=int, default=200,
                        help="window-query rounds (x3 queries each)")
    parser.add_argument("--ckpt-days", type=int, default=30,
                        help="fleet days for the checkpoint_delta benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_substrate.json")
    args = parser.parse_args(argv)
    if min(args.points, args.jobs, args.queries) < 1:
        parser.error("--points, --jobs, and --queries must be positive")
    if args.ckpt_days < 9:
        # Steady state needs the 7-day workload horizon behind it plus a
        # delta tail to time; shorter runs would gate on a base frame.
        parser.error("--ckpt-days must be >= 9")
    if args.quick:
        args.points = min(args.points, 50_000)
        args.jobs = min(args.jobs, 500)
        args.queries = min(args.queries, 30)
        args.ckpt_days = min(args.ckpt_days, 12)

    payload = run(args.points, args.jobs, args.queries, args.ckpt_days)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"== substrate perf (points={args.points:,}, jobs={args.jobs:,},"
        f" cpu_count={payload['cpu_count']}) =="
    )
    for name, row in payload["results"].items():
        if name in ("tracing_overhead", "checkpoint_delta"):
            continue
        print(
            f"{name:<22} legacy {row['legacy_seconds']:>8.3f}s"
            f"  new {row['new_seconds']:>8.3f}s"
            f"  speedup {row['speedup']:>8.1f}x"
        )
    ckpt = payload["results"]["checkpoint_delta"]
    last = ckpt["day_last"]
    print(
        f"{'checkpoint_delta':<22} day {last['day']}:"
        f" full {last['full_bytes']:,}B/{ckpt['steady_full_seconds']*1e3:.1f}ms"
        f"  delta {last['delta_bytes']:,}B/{ckpt['steady_delta_seconds']*1e3:.1f}ms"
        f"  {ckpt['size_ratio']:.1f}x smaller, {ckpt['time_ratio']:.1f}x faster"
    )
    overhead = payload["results"]["tracing_overhead"]
    verdict = "OK" if overhead["within_threshold"] else "OVER BUDGET"
    print(
        f"{'tracing_overhead':<22} baseline {overhead['baseline_seconds']:>6.3f}s"
        f"  traced {overhead['traced_seconds']:>6.3f}s"
        f"  overhead {overhead['overhead_fraction']:>7.1%}"
        f" (threshold {overhead['threshold']:.0%}: {verdict})"
    )
    print(f"\nwritten: {args.out}")
    ok = (
        overhead["within_threshold"]
        and ckpt["delta_5x_smaller"]
        and ckpt["delta_faster"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
