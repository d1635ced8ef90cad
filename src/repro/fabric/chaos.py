"""Chaos harness: SIGKILL a fabric mid-day, resume it, compare reports.

The durability claim of :mod:`repro.fabric.store` is falsifiable, so
this module tests it the hard way: run the fleet in a subprocess that
persists a delta checkpoint after **every tick**, kill it with
``SIGKILL`` (no atexit, no flush, no mercy) at a deterministic global
tick, restore a fresh process from the durable chain, run the remaining
days, and require the final report to be **byte-identical** to an
uninterrupted run.

Three processes per experiment:

1. **baseline** — ``repro fabric --days N`` with no store; writes its
   canonical report bytes.
2. **victim** — same run with ``--store DIR --chaos-kill-tick K``; the
   tick hook SIGKILLs the victim's own process group the moment the
   K-th tick completes (the group kill also reaps any worker-pool
   children).  The harness requires the victim to die by signal — a
   clean exit means the kill point was never reached.
3. **resumed** — ``repro fabric --resume DIR``; restores from the
   chain's durable schedule records (mid-backoff retries included) and
   runs to the same horizon.

``run_chaos`` drives all three and returns a :class:`ChaosResult`;
``repro chaos`` is its CLI face.  Everything is deterministic given the
seed, so the experiment doubles as a regression gate in CI — plain and
with injected faults.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.fabric.plane import ControlPlane, ServiceBinding
    from repro.fabric.pipeline import TickContext


def kill_self() -> None:
    """SIGKILL this process — and its group, when it leads one.

    Killing the whole group reaps worker-pool children the instant the
    victim dies; the group kill only happens when the process leads its
    own group (``run_chaos`` starts victims with ``start_new_session``),
    so calling this from a shared group can never take the caller's
    parent down.
    """
    try:
        if os.getpgid(0) == os.getpid():
            os.killpg(os.getpid(), signal.SIGKILL)
    except OSError:
        pass
    os.kill(os.getpid(), signal.SIGKILL)


def make_kill_hook(
    kill_tick: int,
) -> "Callable[[ControlPlane, ServiceBinding, TickContext], None]":
    """A tick hook that SIGKILLs the process after ``kill_tick`` ticks.

    The hook fires *after* the plane persisted the completed tick to its
    attached store, so the durable chain always covers the kill point.
    """
    if kill_tick < 1:
        raise ValueError("kill_tick must be >= 1")

    def hook(plane, binding, ctx) -> None:
        if plane.total_ticks >= kill_tick:
            kill_self()

    return hook


@dataclass
class ChaosResult:
    """One kill-and-resume experiment, ready to assert on."""

    days: int
    kill_tick: int
    victim_returncode: int
    frames: int
    baseline: bytes
    resumed: bytes
    store_path: Path

    @property
    def identical(self) -> bool:
        """Whether the resumed run reported byte-identically."""
        return self.baseline == self.resumed

    def summary(self) -> str:
        verdict = "byte-identical" if self.identical else "REPORTS DIVERGED"
        return (
            f"chaos: killed at tick {self.kill_tick}"
            f" (signal {-self.victim_returncode}),"
            f" resumed from {self.frames} checkpoint frame(s)"
            f" over {self.days} days -> {verdict}"
        )


def _cli(python: str, *args: str) -> list[str]:
    return [python, "-m", "repro.cli", "fabric", *args]


def _run(cmd: list[str], timeout: float, **popen: object) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=timeout,
        **popen,
    )


def run_chaos(
    days: int = 5,
    kill_tick: int = 12,
    services: Sequence[str] | None = None,
    faults: Sequence[str] = (),
    seed: int = 0,
    workdir: "Path | str | None" = None,
    python: str = sys.executable,
    timeout: float = 600.0,
) -> ChaosResult:
    """Run the baseline / victim / resumed experiment end to end.

    ``kill_tick`` counts completed ticks across *all* services, so a
    seven-service fleet killed at tick 12 dies mid-day-1 with some
    services ticked and some not — exactly the state a naive
    end-of-day checkpoint cannot represent.  Raises ``RuntimeError``
    when any leg misbehaves (baseline fails, victim survives, resume
    fails); returns a :class:`ChaosResult` otherwise — asserting
    ``result.identical`` is the caller's job.
    """
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / "store"
    baseline_out = workdir / "baseline.report"
    victim_out = workdir / "victim.report"
    resumed_out = workdir / "resumed.report"

    common = ["--days", str(days), "--seed", str(seed)]
    if services:
        common += ["--services", ",".join(services)]
    fault_args = [arg for spec in faults for arg in ("--inject-fault", spec)]

    baseline = _run(
        _cli(python, *common, *fault_args, "--report-out", str(baseline_out)),
        timeout,
    )
    if baseline.returncode != 0:
        raise RuntimeError(
            f"chaos baseline run failed ({baseline.returncode}):\n"
            f"{baseline.stdout.decode(errors='replace')}"
        )

    # The victim leads its own session so the kill hook's group kill
    # cannot reach this process.
    victim = _run(
        _cli(
            python,
            *common,
            *fault_args,
            "--store",
            str(store),
            "--chaos-kill-tick",
            str(kill_tick),
            "--report-out",
            str(victim_out),
        ),
        timeout,
        start_new_session=True,
    )
    if victim.returncode >= 0:
        raise RuntimeError(
            f"chaos victim was not killed (exit {victim.returncode}) — "
            f"kill_tick {kill_tick} may exceed the run's total ticks:\n"
            f"{victim.stdout.decode(errors='replace')}"
        )
    if victim_out.exists():
        raise RuntimeError("chaos victim wrote a final report despite the kill")

    resumed = _run(
        _cli(
            python,
            "--resume",
            str(store),
            "--store",
            str(store),
            "--days",
            str(days),
            "--report-out",
            str(resumed_out),
        ),
        timeout,
    )
    if resumed.returncode != 0:
        raise RuntimeError(
            f"chaos resume run failed ({resumed.returncode}):\n"
            f"{resumed.stdout.decode(errors='replace')}"
        )

    from repro.fabric.store import CheckpointStore

    frames = len(CheckpointStore(store).frames())
    return ChaosResult(
        days=days,
        kill_tick=kill_tick,
        victim_returncode=victim.returncode,
        frames=frames,
        baseline=baseline_out.read_bytes(),
        resumed=resumed_out.read_bytes(),
        store_path=store,
    )
