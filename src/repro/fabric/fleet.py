"""Fleet drivers: every autonomous service as a fabric pipeline.

This module is the consolidation the paper argues for — the per-service
driver loops that used to live in ``cli.py`` and the examples, rewritten
once as :class:`~repro.fabric.pipeline.PipelineDriver` subclasses and
registered onto one :class:`~repro.fabric.plane.ControlPlane`:

==============  =======================================  ==================
driver          wraps                                    stages
==============  =======================================  ==================
steering        SteeringService                          observe, validate
cloudviews      CloudViews day-runner                    act, validate
peregrine       WorkloadRepository + analyze             observe, learn
moneyball       MoneyballPolicy                          observe, recommend
seagull         SeagullService                           observe, recommend
doppler         SkuRecommender                           learn, recommend, validate
feedback        FeedbackLoop (shared ModelRegistry)      learn, observe, validate
kea             MachineBehaviorModels + Balancer         observe, learn, act, validate
autotune        ApplicationTuner                         learn, act
joint           coordinate descent on the wave/ckpt      learn
==============  =======================================  ==================

Every driver is picklable (fabric checkpoints pickle them between
ticks), so the helpers services need as callables —
:class:`TrueCostFn`, :class:`LinearRetrainer` — are module-level
classes, never lambdas.  :func:`build_fleet` wires a standard
multi-service scenario from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.service import ServeRequest, ServeResponse
from repro.fabric.pipeline import PipelineDriver, TickContext

#: Trace day a seagull simulation day 0 maps to (needs >= 4 weeks of
#: history for the Holt-Winters forecast, traces are 42 days long).
SEAGULL_FIRST_DAY = 30
#: Last usable trace day for the 42-day usage population.
SEAGULL_LAST_DAY = 41


def _round(value: float, digits: int = 10) -> float:
    """Canonical float rounding for deterministic JSON reports."""
    return round(float(value), digits)


class TrueCostFn:
    """Picklable ``plan -> total true cost`` callable over a cost model."""

    def __init__(self, cost_model) -> None:
        self.cost_model = cost_model

    def __call__(self, plan) -> float:
        return self.cost_model.cost(plan).total


class LinearRetrainer:
    """Picklable retrain callback for the feedback loop."""

    def __call__(self, x, y):
        from repro.ml import LinearRegression

        return LinearRegression().fit(x, y)


# ---------------------------------------------------------------------------
# engine layer
# ---------------------------------------------------------------------------


class SteeringDriver(PipelineDriver):
    """Stream each day's jobs through the steering service."""

    name = "steering"
    dirty_aware = True
    frozen_attrs = ("jobs_by_day",)

    def __init__(self, jobs_by_day, optimizer, true_cost, seed: int = 0) -> None:
        from repro.core.steering import SteeringService

        self.jobs_by_day = jobs_by_day
        self.service = SteeringService(optimizer, true_cost, rng=seed)
        self.improvement = 0.0
        self.jobs_seen = 0

    def services(self):
        return [self.service]

    def observe(self, ctx: TickContext) -> None:
        jobs = self.jobs_by_day.get(ctx.day, [])
        if jobs:
            self.mark_dirty()
        for job_id, plan in jobs:
            self.serve(
                ServeRequest(
                    op="observe", subject=plan, params={"job_id": job_id}
                )
            ).unwrap()
            self.jobs_seen += 1

    def validate(self, ctx: TickContext) -> None:
        report = self.service.report()
        self.improvement = report.improvement

    def final_report(self) -> dict:
        report = self.service.report()
        return {
            "jobs": self.jobs_seen,
            "improvement": _round(report.improvement),
            "adoptions": report.adoptions,
            "rollbacks": report.rollbacks,
            "regression_fraction": _round(report.regression_fraction()),
        }


class CloudViewsDriver(PipelineDriver):
    """Run one CloudViews select/materialize/rewrite cycle per day."""

    name = "cloudviews"
    dirty_aware = True
    frozen_attrs = ("jobs_by_day",)

    def __init__(self, catalog, est_cost, truth, jobs_by_day) -> None:
        from repro.core.cloudviews import CloudViews

        self.service = CloudViews(catalog, est_cost)
        self.truth = truth
        self.jobs_by_day = jobs_by_day
        self.days: list[dict] = []

    def bind_obs(self, obs) -> None:
        self.service.bind(obs)

    def act(self, ctx: TickContext) -> None:
        jobs = self.jobs_by_day.get(ctx.day, [])
        if len(jobs) < 2:
            return
        self.mark_dirty()
        report = self.service.run_day(jobs, self.truth)
        self.days.append(
            {
                "day": ctx.day,
                "n_jobs": report.n_jobs,
                "n_views": report.n_views,
                "latency_improvement": _round(report.latency_improvement),
                "processing_reduction": _round(report.processing_reduction),
            }
        )

    def validate(self, ctx: TickContext) -> None:
        if self.days and self.days[-1]["day"] == ctx.day:
            last = self.days[-1]
            if last["latency_improvement"] < -1e-9:
                raise RuntimeError(
                    f"reuse made day {ctx.day} slower: "
                    f"{last['latency_improvement']:.2%}"
                )

    def final_report(self) -> dict:
        return {"days": self.days}


class PeregrineDriver(PipelineDriver):
    """Grow the shared workload repository; re-analyze as it grows."""

    name = "peregrine"
    layer = "engine"
    dirty_aware = True
    frozen_attrs = ("jobs_by_day",)

    def __init__(
        self,
        jobs_by_day,
        memory_budget_mb: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        from repro.core.peregrine import WorkloadRepository

        #: the fleet's :class:`~repro.fabric.streams.StreamingJobSource`
        self.jobs_by_day = jobs_by_day
        self.repo = WorkloadRepository(
            memory_budget_bytes=(
                memory_budget_mb * 1024 * 1024 if memory_budget_mb else None
            ),
            spill_dir=spill_dir,
        )
        self.stats: dict = {}

    def __setstate__(self, state: dict) -> None:
        if isinstance(state.get("jobs_by_day"), dict):
            raise ValueError(
                "checkpoint holds a Peregrine driver fed by a per-day job"
                " dict, written by the removed eager fleet wiring; fleets"
                " now stream whole days, so rebuild the fleet and rerun"
                " instead of resuming this chain"
            )
        self.__dict__.update(state)

    def observe(self, ctx: TickContext) -> None:
        # The day arrives as one fused columnar batch (possibly
        # prefetched on the worker pool while the previous day's
        # services ran): the repository ingests the whole day.
        batch = self.jobs_by_day.day_batch(ctx.day)
        if batch is not None and len(batch):
            self.mark_dirty()
            self.repo.ingest_batch(batch)

    def learn(self, ctx: TickContext) -> None:
        from repro.core.peregrine import analyze

        if len(self.repo) == 0:
            return
        stats = analyze(self.repo)
        rounded = {
            name: _round(value) for name, value in stats.summary_rows()
        }
        if rounded != self.stats:
            self.stats = rounded
            self.mark_dirty()

    def serve(self, request: ServeRequest) -> ServeResponse:
        """Query endpoint over the shared repository (``stats`` op).

        Peregrine's queryable state is the repository itself, not an
        AutonomousService, so the driver answers the serve contract
        directly: ``stats`` returns the latest analysis rollup plus the
        repository size.
        """
        if request.op == "stats":
            return ServeResponse(
                status=200,
                result={"jobs": len(self.repo), "stats": dict(self.stats)},
                served_by=self.name,
                op=request.op,
            )
        return super().serve(request)

    def final_report(self) -> dict:
        return {"jobs": len(self.repo), "stats": self.stats}


# ---------------------------------------------------------------------------
# service layer
# ---------------------------------------------------------------------------


class MoneyballDriver(PipelineDriver):
    """Tenant traces arrive daily; policies assigned as they arrive."""

    name = "moneyball"
    dirty_aware = True
    frozen_attrs = ("arrivals_by_day",)

    def __init__(self, arrivals_by_day) -> None:
        from repro.core.moneyball import MoneyballPolicy

        self.arrivals_by_day = arrivals_by_day
        self.service = MoneyballPolicy()
        self.policy_counts: dict[str, int] = {}

    def services(self):
        return [self.service]

    def observe(self, ctx: TickContext) -> None:
        arrivals = self.arrivals_by_day.get(ctx.day, [])
        if arrivals:
            self.mark_dirty()
        for trace in arrivals:
            self.serve(ServeRequest(op="observe", subject=trace)).unwrap()

    def recommend(self, ctx: TickContext) -> None:
        arrivals = self.arrivals_by_day.get(ctx.day, [])
        if arrivals:
            self.mark_dirty()
        for trace in arrivals:
            policy = type(
                self.serve(ServeRequest(op="recommend", subject=trace)).unwrap()
            ).__name__
            self.policy_counts[policy] = self.policy_counts.get(policy, 0) + 1

    def final_report(self) -> dict:
        report = self.service.report()
        return {
            "n_tenants": report.n_tenants,
            "predictable_fraction": _round(report.predictable_fraction),
            "policies": dict(sorted(self.policy_counts.items())),
            "points": {
                name: {
                    "qos_penalty": _round(point.qos_penalty),
                    "cost": _round(point.cost),
                }
                for name, point in sorted(report.points.items())
            },
        }


class SeagullDriver(PipelineDriver):
    """Pick tomorrow's backup window for every server, every day."""

    name = "seagull"
    dirty_aware = True
    frozen_attrs = ("traces",)

    def __init__(self, traces, first_day: int = SEAGULL_FIRST_DAY) -> None:
        from repro.core.seagull import SeagullService

        self.traces = list(traces)
        self.first_day = first_day
        self.service = SeagullService()
        self.fallback_days = 0

    def services(self):
        return [self.service]

    def _trace_day(self, sim_day: int) -> int:
        span = SEAGULL_LAST_DAY - self.first_day + 1
        return self.first_day + (sim_day % span)

    def observe(self, ctx: TickContext) -> None:
        if ctx.tick == 0:
            self.mark_dirty()
            for trace in self.traces:
                self.serve(ServeRequest(op="observe", subject=trace)).unwrap()

    def recommend(self, ctx: TickContext) -> None:
        # Recommends every day forever, so seagull never goes clean —
        # it is the driver that keeps long-run delta frames non-empty.
        self.mark_dirty()
        day = self._trace_day(ctx.day)
        for trace in self.traces:
            self.serve(
                ServeRequest(
                    op="recommend",
                    subject=trace.tenant_id,
                    params={"day": day},
                )
            ).unwrap()

    def degrade(self, stage: str, ctx: TickContext) -> None:
        """Fallback to the previous-day heuristic for this day's windows.

        The paper's degrade-to-default behaviour: when the ML forecast
        path is unavailable, the service still schedules backups — with
        Insight 1's simple heuristic instead of Holt-Winters.
        """
        if stage != "recommend":
            return
        from repro.core.seagull import BackupScheduler, PreviousDayPolicy

        self.mark_dirty()
        scheduler = BackupScheduler(self.service.scheduler.window_hours)
        policy = PreviousDayPolicy()
        day = self._trace_day(ctx.day)
        for trace in self.traces:
            self.service._choices.append(scheduler.choose(trace, day, policy))
        self.fallback_days += 1

    def final_report(self) -> dict:
        report = self.service.report()
        return {
            "servers": len(self.traces),
            "windows": len(report.choices),
            "accuracy": _round(report.accuracy),
            "fallback_days": self.fallback_days,
        }


class DopplerDriver(PipelineDriver):
    """Fit segments once, then recommend SKUs for daily migrations."""

    name = "doppler"
    dirty_aware = True
    frozen_attrs = ("historical", "arrivals_by_day")

    def __init__(self, historical, arrivals_by_day, seed: int = 0) -> None:
        from repro.core.doppler import SkuRecommender

        self.historical = list(historical)
        self.arrivals_by_day = arrivals_by_day
        self.service = SkuRecommender(rng=seed)
        self.hits = 0
        self.total = 0

    def services(self):
        return [self.service]

    def learn(self, ctx: TickContext) -> None:
        if ctx.tick == 0:
            self.mark_dirty()
            self.serve(
                ServeRequest(op="observe", subject=self.historical)
            ).unwrap()

    def recommend(self, ctx: TickContext) -> None:
        from repro.workloads.customers import ground_truth_sku

        arrivals = self.arrivals_by_day.get(ctx.day, [])
        if arrivals:
            self.mark_dirty()
        ladder = sorted(self.service.skus, key=lambda s: s.price)
        index = {sku.name: i for i, sku in enumerate(ladder)}
        for customer in arrivals:
            chosen = self.serve(
                ServeRequest(op="recommend", subject=customer)
            ).unwrap().sku
            truth = ground_truth_sku(customer, self.service.skus)
            if abs(index[chosen.name] - index[truth.name]) <= 1:
                self.hits += 1
            self.total += 1

    def validate(self, ctx: TickContext) -> None:
        if self.total >= 20 and self.hits / self.total < 0.5:
            raise RuntimeError(
                f"SKU accuracy collapsed: {self.hits}/{self.total}"
            )

    def final_report(self) -> dict:
        return {
            "recommendations": self.total,
            "accuracy_within_tier": _round(
                self.hits / self.total if self.total else 0.0
            ),
        }


# ---------------------------------------------------------------------------
# cross-cutting: the feedback loop on the shared registry
# ---------------------------------------------------------------------------


class FeedbackDriver(PipelineDriver):
    """Drive one model name through the fabric's shared registry.

    The observation stream drifts (the slope flips partway through), so
    a multi-day run exercises the full monitor -> retrain -> flight ->
    promote path on the *shared* ModelRegistry — the single model
    deployment path of the tentpole.
    """

    name = "feedback"
    dirty_aware = True
    frozen_attrs = ("stream_x", "stream_y")

    def __init__(
        self,
        model_name: str = "latency-model",
        days: int = 7,
        steps_per_day: int = 40,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        flip_at = max(1, int(days * steps_per_day * 0.4))
        xs, ys = [], []
        for step in range(days * steps_per_day):
            x = float(rng.normal())
            slope = 2.0 if step < flip_at else -1.0
            ys.append(slope * x + float(rng.normal(scale=0.1)))
            xs.append(x)
        self.stream_x = np.array(xs).reshape(-1, 1)
        self.stream_y = np.array(ys)
        self.steps_per_day = steps_per_day
        self.model_name = model_name
        self.warmup_seed = seed + 1
        self.loop = None

    def services(self):
        return [self.loop] if self.loop is not None else []

    def _bootstrap(self, ctx: TickContext) -> None:
        """Seed the shared registry through the lifecycle, once."""
        from repro.core.feedback import FeedbackLoop
        from repro.ml import LinearRegression

        rng = np.random.default_rng(self.warmup_seed)
        x0 = rng.normal(size=(50, 1))
        y0 = 2.0 * x0[:, 0] + rng.normal(scale=0.1, size=50)
        model = LinearRegression().fit(x0, y0)
        error = float(np.mean(np.abs(model.predict(x0) - y0)))
        ctx.lifecycle.propose(
            self.model_name, model, candidate_metric=error, day=ctx.day
        )
        self.loop = FeedbackLoop(
            ctx.lifecycle.registry,
            self.model_name,
            retrain=LinearRetrainer(),
            window=30,
            flight_min_samples=10,
            rollback_patience=20,
        )

    def observe(self, ctx: TickContext) -> None:
        if self.loop is None:
            self.mark_dirty()
            self._bootstrap(ctx)
        start = ctx.tick * self.steps_per_day
        if start < len(self.stream_y):
            self.mark_dirty()
        for i in range(start, min(start + self.steps_per_day, len(self.stream_y))):
            self.loop.observe(self.stream_x[i], float(self.stream_y[i]))

    def validate(self, ctx: TickContext) -> None:
        # The loop's own audit trail is the validation artifact; nothing
        # to veto here — but a missing production model is fatal.
        if ctx.lifecycle.registry.production(self.model_name) is None:
            raise RuntimeError(f"{self.model_name} lost its production model")

    def final_report(self) -> dict:
        report = self.loop.report()
        serving = self.loop.registry.production(self.model_name)
        return {
            "steps": report.steps,
            "actions": report.actions,
            "serving_version": serving.version if serving else None,
        }


# ---------------------------------------------------------------------------
# infrastructure layer
# ---------------------------------------------------------------------------


class KeaDriver(PipelineDriver):
    """Telemetry in, behaviour models out, caps deployed via lifecycle."""

    name = "kea"
    layer = "infra"
    dirty_aware = True
    MODEL_NAME = "kea-caps"

    def __init__(
        self,
        n_machines_per_sku: int = 6,
        steps_per_day: int = 20,
        target_cpu: float = 75.0,
        seed: int = 0,
    ) -> None:
        from repro.telemetry import TelemetryStore
        from repro.workloads import MachineFleetSimulator

        self.sim = MachineFleetSimulator(
            n_machines_per_sku=n_machines_per_sku, rng=seed
        )
        self.store = TelemetryStore()
        self.steps_per_day = steps_per_day
        self.target_cpu = target_cpu
        self.caps: dict[str, int] = {}
        self.last_metric: float | None = None

    def observe(self, ctx: TickContext) -> None:
        # Telemetry collection advances the simulator every day, so kea
        # is never clean.
        self.mark_dirty()
        self.sim.collect(
            self.store,
            n_steps=self.steps_per_day,
            step_seconds=300.0,
        )

    def learn(self, ctx: TickContext) -> None:
        from repro.core.kea import MachineBehaviorModels, WorkloadBalancer

        models = MachineBehaviorModels().fit(self.store)
        result = WorkloadBalancer(models).recommend_caps(self.target_cpu)
        metric = float(
            np.mean(
                [
                    abs(cpu - self.target_cpu)
                    for cpu in result.predicted_cpu.values()
                ]
            )
        )
        ctx.lifecycle.propose(
            self.MODEL_NAME,
            result.caps,
            candidate_metric=metric,
            baseline_metric=self.last_metric,
            day=ctx.day,
        )
        self.last_metric = metric

    def act(self, ctx: TickContext) -> None:
        record = ctx.lifecycle.registry.production(self.MODEL_NAME)
        if record is not None:
            self.caps = dict(record.model)

    def validate(self, ctx: TickContext) -> None:
        if self.last_metric is not None:
            ctx.lifecycle.observe_metric(self.MODEL_NAME, self.last_metric)
            ctx.lifecycle.evaluate(self.MODEL_NAME, day=ctx.day)

    def final_report(self) -> dict:
        return {
            "caps": dict(sorted(self.caps.items())),
            "deviation_from_target": _round(self.last_metric or 0.0),
        }


class AutotuneDriver(PipelineDriver):
    """Warm-start from the global model, fine-tune one app per day."""

    name = "autotune"
    layer = "infra"
    dirty_aware = True

    def __init__(
        self, n_apps: int = 20, runs_per_app: int = 6, seed: int = 0
    ) -> None:
        from repro.core.autotune import ApplicationTuner, benchmark_suite

        apps = benchmark_suite(n_apps=n_apps, rng=seed)
        self.benchmarks = apps[: max(8, n_apps // 2)]
        self.targets = apps[max(8, n_apps // 2) :]
        self.tuner = ApplicationTuner(rng=seed + 1)
        self.runs_per_app = runs_per_app
        self.results: list[dict] = []

    def learn(self, ctx: TickContext) -> None:
        if ctx.tick == 0:
            self.mark_dirty()
            self.tuner.fit_global(self.benchmarks)

    def act(self, ctx: TickContext) -> None:
        if not self.targets:
            return
        self.mark_dirty()
        app = self.targets[ctx.tick % len(self.targets)]
        trace = self.tuner.tune(app, n_runs=self.runs_per_app)
        self.results.append(
            {
                "app": app.app_id,
                "best_runtime": _round(trace.best_runtime),
                "runs": len(trace.runtimes),
            }
        )

    def final_report(self) -> dict:
        return {"tuned": self.results}


class JointTuningDriver(PipelineDriver):
    """One synchronized coordinate-descent round per day (Direction 3)."""

    name = "joint"
    layer = "engine"
    dirty_aware = True

    def __init__(self, objective, grid) -> None:
        self.objective = objective
        self.grid = grid
        self.config = grid.defaults()
        self.score: float | None = None
        self.cache: dict = {}
        self.rounds = 0
        self.evaluations = 0
        self.converged = False

    def learn(self, ctx: TickContext) -> None:
        from repro.core.joint import optimize_one

        if self.converged:
            return
        self.mark_dirty()
        before = dict(self.config)
        for name in self.grid.names:
            self.config, self.score, used = optimize_one(
                self.objective, self.grid, self.config, name, self.cache
            )
            self.evaluations += used
        self.rounds += 1
        if self.config == before:
            self.converged = True

    def final_report(self) -> dict:
        return {
            "config": {k: _round(v) for k, v in sorted(self.config.items())},
            "objective": _round(self.score) if self.score is not None else None,
            "rounds": self.rounds,
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# the standard fleet
# ---------------------------------------------------------------------------

#: Fast drivers every test scenario uses.
CORE_FLEET = (
    "steering",
    "cloudviews",
    "peregrine",
    "moneyball",
    "seagull",
    "doppler",
    "feedback",
)
#: Everything, including the heavier infra/engine tuners.
FULL_FLEET = CORE_FLEET + ("kea", "autotune", "joint")


@dataclass
class FleetConfig:
    """One seed, one knob set — everything the standard fleet needs."""

    seed: int = 0
    days: int = 7
    jobs_per_day: int = 8
    tenants: int = 14
    servers: int = 8
    customers: int = 48
    include: tuple[str, ...] = CORE_FLEET
    kea_machines_per_sku: int = 6
    autotune_apps: int = 16
    joint_jobs: int = 3
    feedback_steps_per_day: int = 40
    #: Accepted only as ``None``/``True``: every fleet streams.  Kept
    #: for callers that still pass ``streaming=True``; to be removed
    #: with the next benchmark change.
    streaming: bool | None = None
    #: Cap on the head of each day the plan-facing services sample
    #: (the head is ``min(jobs_per_day, service_jobs_per_day)``).
    service_jobs_per_day: int = 64
    #: repository memory budget + spill target.
    repo_memory_budget_mb: int | None = None
    repo_spill_dir: str | None = None
    #: None = prefetch day d+1 on the worker pool iff it can overlap
    #: (see :meth:`StreamingJobSource.overlap_enabled`).
    overlap_prefetch: bool | None = None

    def __post_init__(self) -> None:
        unknown = set(self.include) - set(FULL_FLEET)
        if unknown:
            raise ValueError(f"unknown fleet services: {sorted(unknown)}")
        if self.streaming is False:
            raise ValueError(
                "streaming=False is gone: every fleet streams its days"
            )

    @property
    def service_head(self) -> int:
        """Jobs per day the plan-facing services (steering, CloudViews) see."""
        return min(self.jobs_per_day, self.service_jobs_per_day)


def build_fleet(plane, config: FleetConfig | None = None):
    """Register the standard multi-service scenario onto ``plane``.

    Builds the shared worlds (SCOPE job stream, usage population,
    customer population) once, slices them into daily arrivals, and
    registers one driver per included service.  Returns the plane.
    """
    config = config or FleetConfig()
    include = set(config.include)

    if include & {"steering", "cloudviews", "peregrine"}:
        from repro.engine import (
            DefaultCardinalityEstimator,
            DefaultCostModel,
            Optimizer,
            TrueCardinalityModel,
        )
        from repro.fabric.streams import StreamingJobSource

        # Days come off the seeded stream as the plane ticks; nothing
        # beyond the current day is ever materialized.  Plan-facing
        # services sample each day's head; the repository ingests the
        # full day columnar.
        source = StreamingJobSource(
            config.seed,
            config.days,
            config.jobs_per_day,
            overlap=config.overlap_prefetch,
        )
        catalog = source.catalog
        job_pairs = source.pairs(config.service_head)
        truth = TrueCardinalityModel(catalog, seed=config.seed)
        if "steering" in include:
            plane.register(
                SteeringDriver(
                    job_pairs,
                    Optimizer(catalog),
                    TrueCostFn(DefaultCostModel(catalog, truth)),
                    seed=config.seed,
                )
            )
        if "cloudviews" in include:
            est_cost = DefaultCostModel(
                catalog, DefaultCardinalityEstimator(catalog)
            )
            plane.register(CloudViewsDriver(catalog, est_cost, truth, job_pairs))
        if "peregrine" in include:
            plane.register(
                PeregrineDriver(
                    source,
                    memory_budget_mb=config.repo_memory_budget_mb,
                    spill_dir=config.repo_spill_dir,
                )
            )

    if "joint" in include:
        from repro.core.joint import ParameterGrid, checkpoint_wave_objective
        from repro.engine import (
            DefaultCardinalityEstimator,
            DefaultCostModel,
            Optimizer,
            TrueCardinalityModel,
        )
        from repro.workloads import ScopeWorkloadGenerator

        # Joint tuning replays whole jobs against a workload object, so
        # it gets its own small default world (own catalog: its plans
        # reference its fragments).
        workload = ScopeWorkloadGenerator(rng=config.seed).generate(
            n_days=min(config.days, 7)
        )
        world_catalog = workload.catalog
        world = {
            "workload": workload,
            "est_cost": DefaultCostModel(
                world_catalog, DefaultCardinalityEstimator(world_catalog)
            ),
            "true_cost": DefaultCostModel(
                world_catalog,
                TrueCardinalityModel(world_catalog, seed=config.seed),
            ),
            "optimizer": Optimizer(world_catalog),
        }
        plane.register(
            JointTuningDriver(
                checkpoint_wave_objective(world, n_jobs=config.joint_jobs),
                ParameterGrid(
                    {
                        "max_stage_seconds": (60.0, 30.0, 120.0),
                        "budget_fraction": (0.1, 0.3, 0.6),
                    }
                ),
            )
        )

    if include & {"moneyball", "seagull"}:
        from repro.workloads import UsagePopulationConfig, generate_population

        population = generate_population(
            UsagePopulationConfig(
                n_tenants=config.tenants + config.servers, n_days=42
            ),
            rng=config.seed,
        )
        if "moneyball" in include:
            tenants = population[: config.tenants]
            arrivals = {
                day: tenants[day :: config.days] for day in range(config.days)
            }
            plane.register(MoneyballDriver(arrivals))
        if "seagull" in include:
            servers = [t for t in population if t.is_predictable][
                : config.servers
            ]
            plane.register(SeagullDriver(servers))

    if "doppler" in include:
        from repro.workloads import generate_customers

        historical = generate_customers(2 * config.customers, rng=config.seed)
        migrating = generate_customers(config.customers, rng=config.seed + 1)
        arrivals = {
            day: migrating[day :: config.days] for day in range(config.days)
        }
        plane.register(DopplerDriver(historical, arrivals, seed=config.seed))

    if "feedback" in include:
        plane.register(
            FeedbackDriver(
                days=config.days,
                steps_per_day=config.feedback_steps_per_day,
                seed=config.seed,
            )
        )

    if "kea" in include:
        plane.register(
            KeaDriver(
                n_machines_per_sku=config.kea_machines_per_sku,
                seed=config.seed,
            )
        )

    if "autotune" in include:
        plane.register(
            AutotuneDriver(n_apps=config.autotune_apps, seed=config.seed)
        )

    return plane
