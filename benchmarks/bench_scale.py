"""Scale harness: streaming million-job worlds, measured and gated.

The paper's services run against Cosmos-scale telemetry — hundreds of
thousands of recurring jobs per day.  This harness proves the columnar
data path holds up at that scale and writes the numbers to
``BENCH_scale.json`` so regressions are visible:

1. **columnar_ingest** — one generated day per scale (10k / 100k / 1M
   jobs), through *both* world-building paths: the fused
   :meth:`ScopeWorkloadGenerator.day_batch` (vectorized, straight into
   :class:`~repro.core.peregrine.JobBatch` columns) and the legacy
   ``day_jobs`` + ``from_jobs`` pair it replaced.  The fused path's
   sustained (warm day-1) rate must beat three times the pre-fusion
   baseline (80k jobs/s generate + 32k jobs/s batchify, i.e. ~22.9k
   jobs/s end to end) at the largest scale, and the columnar append
   must sustain >= 500k jobs/sec.
2. **stream_vs_eager** — day-at-a-time ``day_jobs`` (the per-job
   oracle ``day_batch`` is pinned against) must replay the eager
   generator job-for-job at the same seed (also pinned in
   tests/workloads/test_stream.py).
3. **scale_ticks** — the peregrine pipeline loop (fused-generate the
   day, batch-ingest, re-analyze) day after day at 100k jobs/day under
   a 256 MB chunk budget with disk spill, recording a per-day stage
   breakdown (generate / batchify / ingest / analyze / other seconds),
   tick latency, and resident set size.  After the last day every
   closed day still hot is spilled through the budget's own write path
   and reloaded, timing both.  Three gates: bounded RSS (last day
   within 1.5x of day 5 — the remaining slope is ~20 B/job of resident
   index/template metadata, not world data; see
   ``TICKS_RSS_FLATNESS``), flat ticks (steady-state mean of the last
   5 tick latencies within 1.5x the first 5 — re-analysis must not
   creep with history length), and spill at most ``SPILL_GATE_S`` per
   100k-job chunk.
4. **tick_1m** (full runs only) — the real fleet at a million jobs a
   day: the in-process equivalent of ``repro fabric --days 3
   --jobs-per-day 1000000`` (core fleet, streaming source, overlap
   prefetch on the one-worker pool), wall time and RSS per day, with
   the same flat-RSS gate.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI smoke

``--quick`` trims to 4 ticked days and drops the 1M points — the CI
``scale-smoke`` job runs it on every push.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.peregrine import JobBatch, WorkloadRepository, analyze  # noqa: E402
from repro.workloads.scope import (  # noqa: E402
    ScopeWorkloadConfig,
    ScopeWorkloadGenerator,
)

INGEST_GATE_JOBS_PER_SEC = 500_000
RSS_FLATNESS = 1.15
#: The ticked-days loop gets its own RSS bound.  The legacy loop
#: measured flatness against a ~780 MiB allocator plateau (the per-day
#: 100k-object job list pushed the heap high-water far above live data,
#: so O(history) metadata growth hid in the slack).  The fused loop
#: runs ~150 MiB lighter in absolute terms, which exposes the real
#: resident slope — ~20 B/job of lookup-index + template metadata, not
#: world data (chunks still spill; tick_1m holds the strict 1.15 bound
#: at 10x the scale).
TICKS_RSS_FLATNESS = 1.5
TICK_FLATNESS = 1.5
#: Seconds one 100k-job day chunk may take to spill (one ``.npz`` of
#: its column arrays).
SPILL_GATE_S = 0.2
#: Pre-fusion throughput on this harness's reference box: the two-stage
#: day build ran ~80k jobs/s of generation into ~32k jobs/s of
#: batchify.  End to end that is their harmonic combination (~22.9k
#: jobs/s); the fused path must clear three times that.
BASELINE_GENERATE_JOBS_PER_SEC = 80_000
BASELINE_BATCHIFY_JOBS_PER_SEC = 32_000
FUSED_SPEEDUP_GATE = 3.0
#: The absolute fused gate is judged at the million-job point (fixed
#: per-day costs drown the throughput at smaller scales); runs without
#: that point gate on beating the measured legacy path instead.
FUSED_GATE_SCALE = 1_000_000
FUSED_QUICK_SPEEDUP = 1.2


def _baseline_fused_jobs_per_sec() -> float:
    """End-to-end jobs/s of the pre-fusion generate+batchify pipeline."""
    return 1.0 / (
        1.0 / BASELINE_GENERATE_JOBS_PER_SEC
        + 1.0 / BASELINE_BATCHIFY_JOBS_PER_SEC
    )


def _rss_mb() -> float:
    """Current resident set size in MiB (Linux /proc, else peak)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def bench_columnar_ingest(scales: list[int]) -> dict:
    """One day at each scale through the fused and legacy world paths."""
    points = []
    for jobs_per_day in scales:
        config = ScopeWorkloadConfig.for_scale(jobs_per_day)

        # Fused path: generate straight into columns, then bulk-append.
        # Day 0 is the cold point (one-time template metadata + first
        # 1M-scale allocations); day 1 on the same generator is the
        # sustained per-day rate a multi-day run actually pays.
        fused_gen = ScopeWorkloadGenerator(rng=0, config=config)
        t0 = time.perf_counter()
        batch = fused_gen.day_batch(0)
        t1 = time.perf_counter()
        repo = WorkloadRepository()
        repo.ingest_batch(batch)
        t2 = time.perf_counter()
        n = len(batch)
        fused_cold_seconds = t1 - t0
        ingest_seconds = t2 - t1
        del repo, batch
        gc.collect()
        t2b = time.perf_counter()
        warm_batch = fused_gen.day_batch(1)
        fused_seconds = time.perf_counter() - t2b
        n_warm = len(warm_batch)
        del warm_batch, fused_gen
        gc.collect()

        # Legacy path: materialize the job list, then flatten it.
        legacy_gen = ScopeWorkloadGenerator(rng=0, config=config)
        t3 = time.perf_counter()
        jobs = legacy_gen.day_jobs(0)
        t4 = time.perf_counter()
        legacy_batch = JobBatch.from_jobs(jobs)
        t5 = time.perf_counter()
        assert len(legacy_batch) == n
        generate_seconds = t4 - t3
        batchify_seconds = t5 - t4
        del jobs, legacy_batch, legacy_gen
        gc.collect()

        legacy_seconds = generate_seconds + batchify_seconds
        cold_rate = n / fused_cold_seconds
        points.append(
            {
                "jobs_per_day": jobs_per_day,
                "n_jobs": n,
                "fused_jobs_per_sec": round(n_warm / fused_seconds),
                "fused_cold_jobs_per_sec": round(cold_rate),
                "generate_jobs_per_sec": round(n / generate_seconds),
                "batchify_jobs_per_sec": round(n / batchify_seconds),
                "legacy_jobs_per_sec": round(n / legacy_seconds),
                "ingest_jobs_per_sec": round(n / ingest_seconds),
                # cold vs cold: both sides' day 0 on a fresh generator
                "fused_speedup_vs_legacy": round(
                    legacy_seconds / fused_cold_seconds, 2
                ),
            }
        )
    best_ingest = max(p["ingest_jobs_per_sec"] for p in points)
    # The fusion gate: at the million-job point, three times the
    # *fixed* pre-fusion baseline (so the gate does not soften when
    # today's legacy path happens to run slow); quick runs without that
    # point must still beat the measured legacy path at their largest
    # scale.
    at_scale = points[-1]
    fused_gate = FUSED_SPEEDUP_GATE * _baseline_fused_jobs_per_sec()
    if at_scale["jobs_per_day"] >= FUSED_GATE_SCALE:
        gate_kind = "3x_pre_fusion_baseline_at_1m"
        gate_met = at_scale["fused_jobs_per_sec"] >= fused_gate
    else:
        gate_kind = "quick_speedup_vs_legacy"
        gate_met = at_scale["fused_speedup_vs_legacy"] >= FUSED_QUICK_SPEEDUP
    return {
        "points": points,
        "best_ingest_jobs_per_sec": best_ingest,
        "gate_jobs_per_sec": INGEST_GATE_JOBS_PER_SEC,
        "ingest_gate_met": best_ingest >= INGEST_GATE_JOBS_PER_SEC,
        "baseline_generate_jobs_per_sec": BASELINE_GENERATE_JOBS_PER_SEC,
        "baseline_batchify_jobs_per_sec": BASELINE_BATCHIFY_JOBS_PER_SEC,
        "baseline_fused_jobs_per_sec": round(_baseline_fused_jobs_per_sec()),
        "fused_gate_jobs_per_sec": round(fused_gate),
        "fused_at_scale_jobs_per_sec": at_scale["fused_jobs_per_sec"],
        "fused_gate_kind": gate_kind,
        "fused_gate_met": gate_met,
    }


def bench_stream_vs_eager(n_days: int = 3) -> dict:
    """The pinned equivalence: streaming replays the eager generator."""
    config = ScopeWorkloadConfig(n_recurring_templates=80)
    eager = ScopeWorkloadGenerator(rng=17, config=config).generate(
        n_days=n_days
    )
    streaming = ScopeWorkloadGenerator(rng=17, config=config)
    streamed = [
        job for day in range(n_days) for job in streaming.day_jobs(day)
    ]
    return {
        "n_days": n_days,
        "n_jobs": len(streamed),
        "bit_identical": list(eager.jobs) == streamed,
    }


def _flatness(
    days: list[dict], key: str, start: int = 0
) -> tuple[int, float | None]:
    """(window, mean-of-last-k / mean-of-first-k-from-``start``).

    ``start`` skips the pre-steady-state days: the first couple of days
    at scale run under budget (no chunk eviction yet), so comparing the
    tail against them would measure the one-time onset of spill I/O,
    not drift with history length.
    """
    k = min(5, (len(days) - start) // 2)
    if k < 1:
        return 0, None
    first = sum(d[key] for d in days[start : start + k]) / k
    last = sum(d[key] for d in days[-k:]) / k
    return k, (round(last / first, 4) if first else None)


def bench_scale_ticks(
    jobs_per_day: int, n_days: int, budget_mb: int = 256
) -> dict:
    """Day-after-day peregrine loop: fused generate, ingest, analyze."""
    config = ScopeWorkloadConfig.for_scale(jobs_per_day)
    generator = ScopeWorkloadGenerator(rng=1, config=config)
    days = []
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as spill:
        repo = WorkloadRepository(
            memory_budget_bytes=budget_mb * 2**20, spill_dir=spill
        )
        for day in range(n_days):
            t0 = time.perf_counter()
            batch = generator.day_batch(day)
            t1 = time.perf_counter()
            n_jobs = repo.ingest_batch(batch)
            t2 = time.perf_counter()
            analyze(repo)
            t3 = time.perf_counter()
            del batch
            gc.collect()
            tick_seconds = time.perf_counter() - t0
            stage_sum = t3 - t0
            days.append(
                {
                    "day": day,
                    "jobs": n_jobs,
                    "tick_seconds": round(tick_seconds, 4),
                    # Fused generation writes columns directly, so the
                    # old batchify stage is gone by construction.
                    "generate_seconds": round(t1 - t0, 4),
                    "batchify_seconds": 0.0,
                    "ingest_seconds": round(t2 - t1, 4),
                    "analyze_seconds": round(t3 - t2, 4),
                    "other_seconds": round(tick_seconds - stage_sum, 4),
                    "rss_mb": round(_rss_mb(), 1),
                }
            )
        loop_stats = repo.chunk_stats()
        # Spill and reload where they happen: the budget's write path
        # and the table's loader, on every closed day still hot (a
        # ~10 MiB chunk leaves the 256 MB budget room for weeks, so a
        # short run never evicts on its own).
        table = repo._table
        spill_s, load_s = [], []
        for day in [d for d in table.chunks if d != table.open_day]:
            before = table.spill_s
            table.spill(day)
            spill_s.append(table.spill_s - before)
            before = table.load_s
            table.chunk(day)
            load_s.append(table.load_s - before)
        stats = repo.chunk_stats()
    chunk_jobs = max(d["jobs"] for d in days)
    spill_per_chunk = (
        stats["spill_s"] / stats["spills"] if stats["spills"] else None
    )
    spill_gate_s = SPILL_GATE_S * max(1.0, chunk_jobs / 100_000)
    # Acceptance: day-30 RSS within TICKS_RSS_FLATNESS (1.5x) of day 5
    # (index 4); quick runs compare the last day against the day before
    # it.
    baseline_at = 4 if len(days) > 5 else max(0, len(days) - 2)
    baseline = days[baseline_at]["rss_mb"]
    final = days[-1]["rss_mb"]
    # Acceptance: re-analysis rides the memoized whole-history block,
    # so tick latency must stay flat as the repository's history grows
    # (measured from the same steady-state day as the RSS gate).
    window, tick_growth = _flatness(days, "tick_seconds", start=baseline_at)
    return {
        "jobs_per_day": jobs_per_day,
        "n_days": n_days,
        "memory_budget_mb": budget_mb,
        "days": days,
        "chunk_stats": {
            k: loop_stats[k]
            for k in ("jobs", "days", "hot_chunks", "spilled_chunks",
                      "spills", "loads", "hot_bytes")
        },
        "spill": {
            "chunk_jobs": chunk_jobs,
            "chunks_spilled": stats["spills"],
            "spill_s_per_chunk": (
                round(spill_per_chunk, 4) if spill_per_chunk is not None
                else None
            ),
            "spill_s_max": round(max(spill_s), 4) if spill_s else None,
            "reload_s_per_chunk": (
                round(sum(load_s) / len(load_s), 4) if load_s else None
            ),
            "reload_s_max": round(max(load_s), 4) if load_s else None,
            "gate_s": round(spill_gate_s, 4),
        },
        "spill_gate_met": spill_per_chunk is not None
        and spill_per_chunk <= spill_gate_s
        and max(spill_s, default=0.0) <= spill_gate_s,
        "baseline_day": baseline_at,
        "baseline_rss_mb": baseline,
        "final_rss_mb": final,
        "rss_growth": round(final / baseline, 4) if baseline else None,
        "flat_rss": final <= TICKS_RSS_FLATNESS * baseline,
        "rss_flatness_threshold": TICKS_RSS_FLATNESS,
        "tick_window_days": window,
        "tick_growth": tick_growth,
        "tick_flat": tick_growth is not None
        and tick_growth <= TICK_FLATNESS,
        "tick_flatness_threshold": TICK_FLATNESS,
    }


def bench_tick_1m(n_days: int = 3, jobs_per_day: int = 1_000_000) -> dict:
    """The whole fleet at a million jobs a day, one day at a time.

    In-process equivalent of ``repro fabric --days 3 --jobs-per-day
    1000000``: core fleet on the control plane, streaming source with
    overlap prefetch, 256 MB chunk budget spilling to scratch.  Gated
    on the same RSS flatness as ``scale_ticks``.
    """
    from repro.fabric import ControlPlane, FleetConfig, build_fleet

    days = []
    with tempfile.TemporaryDirectory(prefix="bench-tick1m-") as spill:
        config = FleetConfig(
            seed=0,
            days=n_days,
            jobs_per_day=jobs_per_day,
            repo_memory_budget_mb=256,
            repo_spill_dir=spill,
        )
        with ControlPlane() as plane:
            build_fleet(plane, config)
            t_start = time.perf_counter()
            for day in range(n_days):
                t0 = time.perf_counter()
                plane.run_days(1)
                days.append(
                    {
                        "day": day,
                        "wall_seconds": round(
                            time.perf_counter() - t0, 2
                        ),
                        "rss_mb": round(_rss_mb(), 1),
                    }
                )
            wall_seconds = time.perf_counter() - t_start
            source = next(
                b.driver.jobs_by_day
                for b in plane.bindings
                if b.name == "peregrine"
            )
            prefetch = {
                "overlap_enabled": source.overlap_enabled(),
                "prefetch_hits": source.prefetch_hits,
                "prefetch_misses": source.prefetch_misses,
            }
    baseline_at = max(0, len(days) - 2)
    baseline = days[baseline_at]["rss_mb"]
    final = days[-1]["rss_mb"]
    return {
        "command": (
            f"PYTHONPATH=src python -m repro.cli fabric"
            f" --days {n_days} --jobs-per-day {jobs_per_day}"
        ),
        "n_days": n_days,
        "jobs_per_day": jobs_per_day,
        "days": days,
        "wall_seconds": round(wall_seconds, 2),
        "jobs_per_sec": round(n_days * jobs_per_day / wall_seconds),
        "prefetch": prefetch,
        "baseline_day": baseline_at,
        "baseline_rss_mb": baseline,
        "final_rss_mb": final,
        "rss_growth": round(final / baseline, 4) if baseline else None,
        "flat_rss": final <= RSS_FLATNESS * baseline,
        "rss_flatness_threshold": RSS_FLATNESS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 4 ticked days, no 1M points",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_scale.json",
    )
    args = parser.parse_args(argv)

    scales = [10_000, 100_000] if args.quick else [10_000, 100_000, 1_000_000]
    tick_days = 4 if args.quick else 30

    results = {
        "columnar_ingest": bench_columnar_ingest(scales),
        "stream_vs_eager": bench_stream_vs_eager(),
        "scale_ticks": bench_scale_ticks(100_000, tick_days),
    }
    if not args.quick:
        results["tick_1m"] = bench_tick_1m()
    payload = {
        "bench": "scale",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"== scale bench ({'quick' if args.quick else 'full'}) ==")
    ingest = results["columnar_ingest"]
    for point in ingest["points"]:
        print(
            f"{'columnar_ingest':<18} {point['n_jobs']:>9,} jobs:"
            f" fused {point['fused_jobs_per_sec']:>8,}/s warm"
            f" / {point['fused_cold_jobs_per_sec']:>8,}/s cold"
            f" (legacy {point['legacy_jobs_per_sec']:>7,}/s,"
            f" {point['fused_speedup_vs_legacy']:.1f}x)"
            f"  ingest {point['ingest_jobs_per_sec']:>11,}/s"
        )
    print(
        f"{'fused_gate':<18} {ingest['fused_at_scale_jobs_per_sec']:,}/s"
        f" at scale, gate {ingest['fused_gate_jobs_per_sec']:,}/s"
        f" ({ingest['fused_gate_kind']}):"
        f" {'met' if ingest['fused_gate_met'] else 'MISSED'}"
    )
    eq = results["stream_vs_eager"]
    print(
        f"{'stream_vs_eager':<18} {eq['n_jobs']:,} jobs over"
        f" {eq['n_days']} days:"
        f" {'bit-identical' if eq['bit_identical'] else 'DIVERGED'}"
    )
    ticks = results["scale_ticks"]
    print(
        f"{'scale_ticks':<18} {ticks['jobs_per_day']:,} jobs/day x"
        f" {ticks['n_days']} days:"
        f" day {ticks['baseline_day']} RSS {ticks['baseline_rss_mb']:.0f} MiB"
        f" -> final {ticks['final_rss_mb']:.0f} MiB"
        f" ({ticks['rss_growth']:.2f}x,"
        f" {'flat' if ticks['flat_rss'] else 'GROWING'};"
        f" {ticks['chunk_stats']['spills']} spills)"
    )
    spill = ticks["spill"]
    print(
        f"{'spill':<18} {spill['chunks_spilled']} chunks of"
        f" {spill['chunk_jobs']:,} jobs: {spill['spill_s_per_chunk']} s"
        f" spill / {spill['reload_s_per_chunk']} s reload per chunk"
        f" (gate {spill['gate_s']} s):"
        f" {'met' if ticks['spill_gate_met'] else 'MISSED'}"
    )
    print(
        f"{'tick_flatness':<18} last-{ticks['tick_window_days']} vs"
        f" first-{ticks['tick_window_days']} tick mean:"
        f" {ticks['tick_growth']:.2f}x"
        f" (gate {ticks['tick_flatness_threshold']:.1f}x):"
        f" {'flat' if ticks['tick_flat'] else 'DRIFTING'}"
    )
    ok = (
        ingest["ingest_gate_met"]
        and ingest["fused_gate_met"]
        and eq["bit_identical"]
        and ticks["flat_rss"]
        and ticks["tick_flat"]
        and ticks["spill_gate_met"]
    )
    if not args.quick:
        tick1m = results["tick_1m"]
        hits = f" {tick1m['prefetch']['prefetch_hits']} prefetch hits;"
        print(
            f"{'tick_1m':<18} {tick1m['jobs_per_day']:,} jobs/day x"
            f" {tick1m['n_days']} days in {tick1m['wall_seconds']:.0f}s"
            f" ({tick1m['jobs_per_sec']:,} jobs/s;{hits}"
            f" final RSS {tick1m['final_rss_mb']:.0f} MiB,"
            f" {tick1m['rss_growth']:.2f}x,"
            f" {'flat' if tick1m['flat_rss'] else 'GROWING'})"
        )
        ok = ok and tick1m["flat_rss"]
    print(f"peak RSS: {payload['peak_rss_mb']:.0f} MiB")
    print(f"\nwritten: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
