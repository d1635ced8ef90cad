"""One benchmark for the fabric and the serve plane.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_stream_100k --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one pass with tracing off and prints the end-to-end
metrics.  ``--trace 1`` runs an untraced pass, then the same pass with
every layer boundary wrapped, prints the per-layer metrics, and writes
the spans to ``.perfbench/trace-<workload>-seed<n>.json``.  The last
line of standard output is always the JSON result; the exit code is
nonzero when a correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: name -> unit for every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "disk_mb": "MiB",
    "fleet.jobs_per_s": "jobs/s",
    "fleet.day_p50_s": "s",
}

#: The ten fleet services (``svc.<name>.s`` / ``svc.<name>.calls``).
FLEET_SERVICES = (
    "steering", "cloudviews", "peregrine", "moneyball", "seagull",
    "doppler", "feedback", "kea", "autotune",
)

#: name -> unit for every per-layer metric (printed with ``--trace 1``).
PER_LAYER = {
    "workloads.day_batch.calls": "count",
    "workloads.day_batch.s": "s",
    "fabric.day_source.wait_s": "s",
    "parallel.prefetch.hits": "count",
    "parallel.prefetch.misses": "count",
    "parallel.pool.dispatches": "count",
    "parallel.pool.spawn_s": "s",
    "peregrine.ingest.s": "s",
    "peregrine.ingest.jobs": "count",
    "peregrine.analyze.s": "s",
    "peregrine.spills": "count",
    "peregrine.loads": "count",
    "peregrine.spill_mb": "MiB",
    "peregrine.hot_mb": "MiB",
    "engine.optimize.calls": "count",
    "engine.optimize.s": "s",
    **{
        f"svc.{name}.{kind}": unit
        for name in FLEET_SERVICES
        for kind, unit in (("s", "s"), ("calls", "count"))
    },
    "fabric.ticks": "count",
    "fabric.stages.degraded": "count",
    "fabric.sched.s": "s",
    "fabric.store.save.s": "s",
    "fabric.store.frames": "count",
    "fabric.store.mb": "MiB",
    "fabric.store.load.s": "s",
    "serve.session.s": "s",
    "serve.admission.s": "s",
    "serve.admission.shed": "count",
    "serve.admission.throttled": "count",
    "serve.admission.expired": "count",
    "serve.cache.s": "s",
    "serve.cache.hit_rate": "fraction",
    "serve.cache.invalidations": "count",
    "serve.batch.wait_ms.p50": "ms",
    "serve.batch.wait_ms.p99": "ms",
    "serve.batch.mean_size": "count",
    "serve.dispatch.s": "s",
    "serve.dispatch.calls": "count",
    "serve.tick.s": "s",
    "serve.tick.stall_ms.max": "ms",
    "serve.gen_lag_ms.p99": "ms",
    "fleet.day_max_s": "s",
    "serve.p50_ms.r1000": "ms",
    "serve.p99_ms.r1000": "ms",
    "serve.p50_ms.r4000": "ms",
    "serve.p99_ms.r4000": "ms",
    "serve.ok_frac.r4000": "fraction",
    "serve.max_qps": "req/s",
    "runtime.gc2.count": "count",
    "runtime.gc2.pause_s": "s",
    "runtime.cpu_s": "s",
    "runtime.blocked_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_s": "s",
}

#: Per-layer metrics that are span self times: with
#: ``trace.unattributed_s`` they sum to the traced pass's wall.
SELF_TIME_SPANS = {
    "workloads.day_batch.s": "workloads.day_batch",
    "fabric.day_source.wait_s": "fabric.day_source",
    "peregrine.ingest.s": "peregrine.ingest",
    "peregrine.analyze.s": "peregrine.analyze",
    "engine.optimize.s": "engine.optimize",
    **{f"svc.{name}.s": f"svc.{name}" for name in FLEET_SERVICES},
    "fabric.sched.s": "fabric.run",
    "fabric.store.save.s": "fabric.store.save",
    "fabric.store.load.s": "fabric.store.load",
    "serve.session.s": "serve.session",
    "serve.admission.s": "serve.admission",
    "serve.cache.s": "serve.cache",
    "serve.dispatch.s": "serve.dispatch",
}

WORKLOADS = ("fleet_stream_100k", "fleet_services_durable", "serve_ticking")


def run_workload(name: str, seed: int, seconds: float, workdir: Path):
    """One measured pass of workload ``name``."""
    from repro.fabric import CORE_FLEET
    from scenarios import FleetSpec, fleet_pass, serve_pass

    read_s = seconds / 10
    if name == "fleet_stream_100k":
        # Day 2 is the spill onset under the 256 MB budget; days 3-5
        # are the steady state after it.
        spec = FleetSpec(CORE_FLEET, jobs_per_day=100_000, days=6)
        return fleet_pass(spec, seed, read_s, workdir)
    if name == "fleet_services_durable":
        # The full fleet but joint tuning, whose cost swings with the
        # seed from under a second to minutes (see README.md).
        spec = FleetSpec(
            CORE_FLEET + ("kea", "autotune"), jobs_per_day=8_000, days=14,
            service_jobs_per_day=1536, budget_mb=32, store_copy_day=12,
        )
        return fleet_pass(spec, seed, read_s, workdir)
    return serve_pass(seed, seconds, workdir)


def layer_metrics(probe, traced, untraced, gc_watch) -> dict[str, float]:
    """Every per-layer metric from a traced pass (and its untraced twin)."""
    import numpy as np

    from spans import percentile, unattributed

    rollup = probe.tracer.rollup()

    def self_s(span: str) -> float:
        return rollup.get(span, {}).get("self_s", 0.0)

    def calls(span: str) -> float:
        return rollup.get(span, {}).get("calls", 0)

    metrics = {name: self_s(span) for name, span in SELF_TIME_SPANS.items()}
    counters = dict(traced.counters)
    lag = np.concatenate(
        [np.asarray(p.lag_s) for p in untraced.phases.values()]
    )
    batch_wait = probe.batch_wait
    batches = counters.get("serve.batches", 0)
    metrics.update(
        {
            "workloads.day_batch.calls": calls("workloads.day_batch"),
            "engine.optimize.calls": calls("engine.optimize"),
            "serve.dispatch.calls": calls("serve.dispatch"),
            "peregrine.ingest.jobs": probe.jobs_ingested,
            "serve.batch.wait_ms.p50": percentile(batch_wait, 50) * 1e3 if batch_wait else 0.0,
            "serve.batch.wait_ms.p99": percentile(batch_wait, 99) * 1e3 if batch_wait else 0.0,
            "serve.batch.mean_size": probe.batch_submits / batches if batches else 0.0,
            "serve.tick.s": sum(traced.stalls_s),
            "serve.tick.stall_ms.max": max(traced.stalls_s, default=0.0) * 1e3,
            "serve.gen_lag_ms.p99": percentile(lag, 99) * 1e3,
            **{
                name: untraced.metrics.get(name, 0.0)
                for name in (
                    "fleet.day_max_s", "serve.p50_ms.r1000", "serve.p99_ms.r1000",
                    "serve.p50_ms.r4000",
                    "serve.p99_ms.r4000", "serve.ok_frac.r4000",
                )
            },
            "serve.max_qps": untraced.counters.get("serve.max_qps", 0),
            "runtime.gc2.count": gc_watch.count,
            "runtime.gc2.pause_s": gc_watch.pause_s,
            "runtime.cpu_s": traced.cpu_s,
            "runtime.blocked_s": traced.wall_s - traced.cpu_s,
            "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
            "trace.unattributed_s": unattributed(traced.wall_s, rollup),
        }
    )
    for name in FLEET_SERVICES:
        metrics[f"svc.{name}.calls"] = calls(f"svc.{name}")
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = counters.get(name, 0.0)
    return metrics


def environment(seed: int, result) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "overlap_prefetch": bool(result.counters.get("env.overlap", False)),
        "pool_width": int(result.counters.get("env.pool_width", 0)),
    }


def read_tails(result) -> list[dict]:
    """Per read rate: median latency, the highest well-sampled
    percentile with its sample count, and how late the generator ran."""
    from spans import percentile, tail_percentile

    tails = []
    for rate, phase in sorted(result.phases.items()):
        latency = phase.latencies_with_misses()
        tail = tail_percentile(latency)
        tails.append(
            {
                "rate": rate,
                "n": len(latency),
                "p50_ms": percentile(latency, 50) * 1e3,
                "tail_q": tail[0] if tail else None,
                "tail_ms": tail[1] * 1e3 if tail else None,
                "generator_lag_p99_ms": percentile(phase.lag_s, 99) * 1e3,
            }
        )
    return tails


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro").is_dir():
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        return _measure(args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        from repro.parallel import shutdown_pool

        shutdown_pool()


def _measure(args, workdir: Path, out_dir: Path) -> int:
    from layers import LayerProbe, instrument
    from spans import GcWatch

    untraced = run_workload(args.workload, args.seed, args.seconds, workdir / "untraced")
    problems = list(untraced.problems)
    attempted, failed = untraced.attempted, untraced.failed
    if not args.trace:
        result, metrics, units = untraced, untraced.metrics, END_TO_END
    else:
        probe = LayerProbe()
        with instrument(probe), GcWatch() as gc_watch:
            traced = run_workload(
                args.workload, args.seed, args.seconds, workdir / "traced"
            )
        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
        if untraced.report != traced.report:
            problems.append("traced and untraced runs reported different bytes")
        result, metrics, units = traced, layer_metrics(probe, traced, untraced, gc_watch), PER_LAYER
        if metrics["trace.unattributed_s"] < -1e-6:
            problems.append("span self times add up to more than the traced wall")
    env = environment(args.seed, result)
    if args.trace:
        dump = {"environment": env, "spans": probe.tracer.to_json()}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump, separators=(",", ":")))
    print(json.dumps({"environment": env}))
    print(json.dumps({"read_tails": read_tails(untraced)}))
    if "fabric.restored_day" in untraced.counters:
        print(json.dumps({"restored_day": untraced.counters["fabric.restored_day"]}))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    _emit(not problems, attempted, failed, metrics, units)
    return 1 if problems else 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"elapsed {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
