"""The three workloads, each as one measured pass over the public API.

A pass builds its fleet several times (``setup_s`` is the median), runs
the fabric one ``run_days(1)`` call per simulated day, and reads through
a :class:`~repro.serve.QueryPlane` with open-loop request streams at
fixed rates: while the fabric ticks on ``serve_ticking``, after the last
day on the fleet workloads.  Every pass returns a :class:`Pass` holding
its metrics, the operations it attempted and failed, and its
correctness findings.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from loadgen import UNANSWERED, PhaseResult, run_phase
from spans import percentile

#: Set-ups repeat at least MIN_REPS times and until MIN_REPEAT_S
#: seconds of wall, collections between them included, have passed (at
#: most MAX_REPS); ``setup_s`` is their median.  The host switches
#: between a fast and a third slower speed every second or few, so the
#: window spans several switches.
MIN_REPS = 3
MIN_REPEAT_S = 5.0
MAX_REPS = 100
#: Due-time latency limit a request must meet to count as answered.
LATENCY_LIMIT_S = 0.050
#: Fabric days the serve plane ticks per second of phase schedule.
TICK_EVERY_S = 0.5
#: Rate every workload reads at; the serve sweep adds the others.
READ_RATE = 1000
SERVE_RATES = (1000, 4000)
#: Each serve rate runs this many phases; its metrics pool them.
SERVE_REPEATS = 2
#: Queue bound far above what one tick stall builds at the top rate.
SERVE_QUEUE_DEPTH = 1_000_000
MIB = 2**20


@dataclass
class Pass:
    """One measured pass: metrics, operation counts, correctness."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report: bytes = b""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Layer counters read off program objects after the pass.
    counters: dict[str, float] = field(default_factory=dict)
    #: Phase results of the read streams, pooled by rate.
    phases: dict[int, PhaseResult] = field(default_factory=dict)
    stalls_s: list[float] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet workload: which services, how many jobs, which days."""

    include: tuple[str, ...]
    jobs_per_day: int
    days: int
    service_jobs_per_day: int = 64
    #: Repository chunk-cache budget; colder day chunks spill to disk.
    budget_mb: int = 256
    #: With a value, a checkpoint store persists every tick and its
    #: chain is copied after this many days, then restored and resumed.
    store_copy_day: int | None = None


def _median(values) -> float:
    return float(statistics.median(values))


def _repeat(action):
    """Median seconds of repeated ``action()`` calls, and the last plane.

    Every plane but the last is closed as soon as the next call starts.
    """
    times, plane = [], None
    window = time.perf_counter()
    while len(times) < MIN_REPS or (
        time.perf_counter() - window < MIN_REPEAT_S and len(times) < MAX_REPS
    ):
        if plane is not None:
            plane.close()
            plane = None
        gc.collect()  # each repetition starts from a collected heap
        clock = time.perf_counter()
        plane = action()
        times.append(time.perf_counter() - clock)
    return _median(times), plane


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / MIB


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_run_days(plane, stalls: list[float]) -> None:
    """Shadow ``plane.run_days`` on the instance to time each call."""
    run_days = plane.run_days

    def timed(n_days: int):
        started = time.perf_counter()
        try:
            return run_days(n_days)
        finally:
            stalls.append(time.perf_counter() - started)

    plane.run_days = timed


# ---------------------------------------------------------------------------
# reads
# ---------------------------------------------------------------------------


def _read_metrics(result: Pass, rates) -> None:
    """Per-rate latency metrics plus operation counts from the phases."""
    for rate in rates:
        phase = result.phases[rate]
        latency = phase.latencies_with_misses()
        result.metrics[f"serve.p50_ms.r{rate}"] = percentile(latency, 50) * 1e3
        result.metrics[f"serve.p99_ms.r{rate}"] = percentile(latency, 99) * 1e3
        result.metrics[f"serve.ok_frac.r{rate}"] = (
            phase.ok_within(LATENCY_LIMIT_S) / phase.sent
        )
        statuses = phase.by_status()
        sent = phase.sent
        answered = sum(statuses.values())
        result.attempted += sent
        result.failed += sent - statuses.get(200, 0)
        result.check(
            answered == sent and UNANSWERED not in statuses,
            f"r{rate}: {sent} sent but statuses {statuses}",
        )


def _sustained(phase: PhaseResult) -> bool:
    """Whether a phase met the limit without a growing backlog."""
    latency = phase.latencies_with_misses()
    lag = np.asarray(phase.lag_s)
    last_quarter = lag[-max(1, len(lag) // 4):]
    return (
        percentile(latency, 99) <= LATENCY_LIMIT_S
        and phase.ok_within(LATENCY_LIMIT_S) >= 0.99 * phase.sent
        and float(np.median(last_quarter)) <= LATENCY_LIMIT_S
    )


class ServeTotals:
    """Serve-plane counters summed over every query phase of a pass."""

    KEYS = ("hits", "misses", "invalidations", "shed", "throttled",
            "expired", "batches")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.KEYS, 0)

    def add(self, plane) -> None:
        cache, admission = plane.cache.summary(), plane.admission.summary()
        for key in ("hits", "misses", "invalidations"):
            self.counts[key] += cache[key]
        for key in ("shed", "throttled", "expired"):
            self.counts[key] += admission[key]
        self.counts["batches"] += plane.batcher.batches

    def counters(self) -> dict[str, float]:
        c = self.counts
        return {
            "serve.cache.hit_rate": c["hits"] / max(1, c["hits"] + c["misses"]),
            "serve.cache.invalidations": c["invalidations"],
            "serve.admission.shed": c["shed"],
            "serve.admission.throttled": c["throttled"],
            "serve.admission.expired": c["expired"],
            "serve.batches": c["batches"],
        }


def query_phase(
    fabric, seed: int, rate: int, seconds: float, result: Pass,
    totals: ServeTotals, ticking: bool,
) -> None:
    """One open-loop phase through a fresh ``QueryPlane`` over ``fabric``.

    With ``ticking`` the fabric advances one day every ``TICK_EVERY_S``
    seconds of schedule.  Steering is left out of the request mix when
    its jobs come from a streaming source, whose day view
    ``TrafficGenerator`` cannot iterate.
    """
    from repro.serve import QueryPlane, TrafficGenerator

    plane = QueryPlane(
        fabric,
        rate_per_tenant=1e9,  # throttling off: shedding is what is measured
        burst=1e9,
        max_queue_depth=SERVE_QUEUE_DEPTH,
    )
    bindings = [
        b for b in fabric.bindings
        if b.name != "steering" or isinstance(b.driver.jobs_by_day, dict)
    ]
    traffic = TrafficGenerator(SimpleNamespace(bindings=bindings), seed=seed)

    async def serve_phase():
        phase = await run_phase(
            plane.handle,
            traffic.request,
            rate,
            seconds,
            ticks=(lambda: plane.tick_background(1)) if ticking else None,
            tick_every_s=TICK_EVERY_S,
        )
        plane.drain()
        return phase

    gc.collect()
    phase = asyncio.run(serve_phase())
    if rate in result.phases:
        result.phases[rate].extend(phase)
    else:
        result.phases[rate] = phase
    responses = sum(plane.responses_by_status.values())
    result.check(
        plane.requests == phase.sent == responses,
        f"r{rate}: {phase.sent} sent, plane saw {plane.requests} requests"
        f" and {responses} responses",
    )
    totals.add(plane)


# ---------------------------------------------------------------------------
# fleets
# ---------------------------------------------------------------------------


def fleet_pass(spec: FleetSpec, seed: int, seconds: float, workdir: Path) -> Pass:
    """Build, run and check one fleet workload; ``seconds`` sizes reads."""
    from repro.fabric import (
        CheckpointStore,
        ControlPlane,
        FleetConfig,
        build_fleet,
    )

    result = Pass()
    started, cpu_started = time.perf_counter(), time.process_time()
    spill_dir = workdir / "spill"
    config = FleetConfig(
        seed=seed,
        days=spec.days,
        jobs_per_day=spec.jobs_per_day,
        include=spec.include,
        streaming=True,
        service_jobs_per_day=spec.service_jobs_per_day,
        repo_memory_budget_mb=spec.budget_mb,
        repo_spill_dir=str(spill_dir),
    )
    result.metrics["setup_s"], plane = _repeat(
        lambda: build_fleet(ControlPlane(), config)
    )

    source = next(
        b.driver.jobs_by_day for b in plane.bindings if b.name == "peregrine"
    )
    repo = next(b.driver.repo for b in plane.bindings if b.name == "peregrine")
    result.counters["env.overlap"] = float(source.overlap_enabled())
    store_dir = workdir / "store"
    copy_dir = workdir / "store-copy"
    durable = spec.store_copy_day is not None
    store = None
    if durable:
        store = CheckpointStore(store_dir)
        plane.attach_store(store)

    days: list[float] = []
    generated = 0
    for day in range(spec.days):
        clock = time.perf_counter()
        plane.run_days(1)
        days.append(time.perf_counter() - clock)
        batch = source.day_batch(day)
        generated += len(batch) if batch is not None else 0
        if durable and day + 1 == spec.store_copy_day:
            copy_dir.mkdir()
            for item in store_dir.iterdir():
                shutil.copy2(item, copy_dir / item.name)
    ingested = len(repo)
    result.report = plane.report_bytes()
    result.metrics["fleet.jobs_per_s"] = ingested / sum(days)
    result.metrics["fleet.day_p50_s"] = _median(days)
    result.metrics["fleet.day_max_s"] = max(days)
    result.check(
        ingested == generated,
        f"ingested {ingested} jobs but {generated} were generated",
    )
    health = plane.health.summary()
    stages_run = health["ok"] + health["retried"] + health["degraded"]
    result.attempted += stages_run
    result.failed += health["degraded"]
    result.counters.update(_fleet_counters(plane, source, repo, store))

    totals = ServeTotals()
    query_phase(plane, seed, READ_RATE, seconds, result, totals, ticking=False)
    _read_metrics(result, [READ_RATE])
    result.counters.update(totals.counters())

    pool_stats = plane.pool.stats()
    plane.close()
    result.counters["parallel.pool.dispatches"] = pool_stats["dispatches"]
    result.counters["parallel.pool.spawn_s"] = pool_stats["spawn_seconds"]
    result.counters["env.pool_width"] = pool_stats["width"]
    if durable:
        # A per-tick chain restores one run_days call behind the days
        # it holds, so resume to the target day before comparing.
        plane = source = repo = store = None
        gc.collect()  # the restore starts without the finished fleet
        restored = ControlPlane.restore(copy_dir)
        result.counters["fabric.restored_day"] = restored.day
        restored.attach_store(CheckpointStore(copy_dir))
        restored.run_days(spec.days - restored.day)
        result.check(
            restored.report_bytes() == result.report,
            "restored-and-resumed report differs from the uninterrupted run",
        )
        result.attempted += 1
        restored.close()
    result.metrics["disk_mb"] = _dir_mb(workdir)
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.wall_s = time.perf_counter() - started
    result.cpu_s = time.process_time() - cpu_started
    return result


def _fleet_counters(plane, source, repo, store) -> dict[str, float]:
    chunks = repo.chunk_stats()
    health = plane.health.summary()
    counters = {
        "parallel.prefetch.hits": source.prefetch_hits,
        "parallel.prefetch.misses": source.prefetch_misses,
        "peregrine.spills": chunks["spills"],
        "peregrine.loads": chunks["loads"],
        "peregrine.hot_mb": chunks["hot_bytes"] / MIB,
        "peregrine.spill_mb": (
            _dir_mb(repo.spill_dir) if repo.spill_dir.exists() else 0.0
        ),
        "fabric.ticks": plane.total_ticks,
        "fabric.stages.degraded": health["degraded"],
    }
    if store is not None:
        counters["fabric.store.frames"] = len(store.frames())
        counters["fabric.store.mb"] = store.path.stat().st_size / MIB
    return counters


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def serve_pass(seed: int, seconds: float, workdir: Path) -> Pass:
    """The default serve fleet, warmed, read at fixed rates while ticking."""
    from repro.fabric import ControlPlane, FleetConfig, build_fleet

    result = Pass()
    started, cpu_started = time.perf_counter(), time.process_time()
    phase_s = seconds / (len(SERVE_RATES) * SERVE_REPEATS)
    ticks_per_phase = int(phase_s / TICK_EVERY_S)
    warm_days = 2
    config = FleetConfig(seed=seed, days=warm_days + ticks_per_phase + 1)
    def warm_fleet():
        return build_fleet(ControlPlane(), config).run_days(warm_days)

    result.metrics["setup_s"], fabric = _repeat(warm_fleet)
    # Every rate phase starts from this warmed chain.
    warmed = workdir / "warmed"
    fabric.checkpoint(warmed)
    fabric.close()

    stalls, jobs, ticks = result.stalls_s, 0, 0
    totals = ServeTotals()
    for rate in SERVE_RATES * SERVE_REPEATS:
        fabric = None
        gc.collect()  # the previous phase's fleet is gone before the next
        fabric = ControlPlane.restore(warmed)
        repo = next(b.driver.repo for b in fabric.bindings if b.name == "peregrine")
        jobs_before, ticks_before = len(repo), fabric.total_ticks
        _timed_run_days(fabric, stalls)
        query_phase(fabric, seed, rate, phase_s, result, totals, ticking=True)
        jobs += len(repo) - jobs_before
        ticks += fabric.total_ticks - ticks_before
        pool_width = fabric.pool.stats()["width"]
        fabric.close()

    _read_metrics(result, SERVE_RATES)
    result.metrics["fleet.jobs_per_s"] = jobs / sum(stalls)
    result.metrics["fleet.day_p50_s"] = _median(stalls)
    result.metrics["fleet.day_max_s"] = max(stalls)
    result.metrics["disk_mb"] = _dir_mb(workdir)
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    sustained = [r for r in SERVE_RATES if _sustained(result.phases[r])]
    result.counters.update(totals.counters())
    result.counters.update(
        {
            "serve.max_qps": max(sustained, default=0),
            "fabric.ticks": ticks,
            "env.pool_width": pool_width,
        }
    )
    result.wall_s = time.perf_counter() - started
    result.cpu_s = time.process_time() - cpu_started
    return result
