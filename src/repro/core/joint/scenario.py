"""A concretely coupled pair of knobs: wave sizing x checkpoint budget.

Two "teams" own two knobs of the same execution pipeline:

- the *execution* team owns ``max_stage_seconds`` (wave granularity):
  coarse waves minimize per-stage scheduling overhead, fine waves create
  checkpointable cut points;
- the *reliability* team owns ``budget_fraction`` (checkpoint bytes):
  more checkpointing means cheaper restarts and cooler hotspots, but
  more write overhead.

The combined objective (runtime + expected restart exposure + hotspot
pressure) is non-separable: the best checkpoint budget depends on the
wave granularity and vice versa, which is exactly the Direction-3
argument for synchronized joint tuning.

:class:`CheckpointWaveObjective` is the objective itself — a picklable
callable (no captured closures), so the fabric can checkpoint a joint
tuning session mid-run.
:func:`checkpoint_wave_objective` keeps the original
build-from-a-world-fixture entry point and now returns an instance of
that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import CheckpointOptimizer
from repro.engine import ClusterExecutor, Expression, compile_stages

Config = dict[str, float]

#: Objective weights: seconds, seconds, and GB-normalized temp pressure.
RESTART_WEIGHT = 0.5
TEMP_WEIGHT_PER_GB = 0.5


@dataclass
class CheckpointWaveObjective:
    """Mean combined cost of running ``plans`` at one knob setting.

    Deterministic given its fields: the failure-time draw restarts from
    ``rng_seed`` on every call, and the executor is seeded per plan.
    Holds only plans and cost models (all picklable), so instances
    survive fabric checkpoints and process-pool boundaries.
    """

    plans: list[Expression]
    est_cost: object
    true_cost: object
    rng_seed: int = 7
    n_machines: int = 16
    max_stage_bytes: float = 128e6
    calls: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError("no plans to optimize over")

    def __call__(self, config: Config) -> float:
        self.calls += 1
        max_stage_seconds = float(config["max_stage_seconds"])
        budget_fraction = float(np.clip(config["budget_fraction"], 0.01, 1.0))
        chooser = CheckpointOptimizer(budget_fraction=budget_fraction)
        rng = np.random.default_rng(self.rng_seed)
        total = 0.0
        for plan in self.plans:
            graph = compile_stages(
                plan,
                self.est_cost,
                truth=self.true_cost,
                max_stage_seconds=max_stage_seconds,
                max_stage_bytes=self.max_stage_bytes,
            )
            checkpoints = chooser.select(graph).checkpoints
            executor = ClusterExecutor(n_machines=self.n_machines, rng=1)
            report = executor.run(graph, checkpoints=checkpoints)
            failure_time = report.runtime * rng.uniform(0.3, 0.95)
            restart = ClusterExecutor(rng=1).restart_work_seconds(
                graph, report, failure_time
            )
            total += (
                report.runtime
                + RESTART_WEIGHT * restart
                + TEMP_WEIGHT_PER_GB * report.peak_temp_bytes / 1e9
            )
        return total / len(self.plans)


def checkpoint_wave_objective(
    world: dict,
    n_jobs: int = 8,
    rng_seed: int = 7,
) -> CheckpointWaveObjective:
    """Build the shared objective over ``n_jobs`` representative jobs.

    ``world`` follows the shared fixture convention: workload, est_cost,
    true_cost, optimizer.  Returns a :class:`CheckpointWaveObjective`
    mapping {max_stage_seconds, budget_fraction} to the mean combined
    cost.
    """
    jobs = [j for j in world["workload"].jobs if j.plan.size >= 5][:n_jobs]
    if not jobs:
        raise ValueError("no suitable jobs in the workload")
    plans = [world["optimizer"].optimize(j.plan).plan for j in jobs]
    return CheckpointWaveObjective(
        plans=plans,
        est_cost=world["est_cost"],
        true_cost=world["true_cost"],
        rng_seed=rng_seed,
    )
