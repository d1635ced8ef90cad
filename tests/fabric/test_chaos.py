"""Chaos harness: SIGKILL a fabric mid-day, resume, byte-identical.

These are the acceptance tests for the durable schedule state — each
spawns three real subprocesses (baseline, victim, resumed), kills the
victim with ``kill -9`` at a deterministic tick that lands mid-day
(some services ticked, some not), and requires the resumed run's final
report to match the uninterrupted baseline byte for byte.
"""

import pytest

from repro.fabric import run_chaos
from repro.fabric.chaos import make_kill_hook

DAYS = 2
#: 7 services tick per day: tick 10 lands mid-day-1 with three services
#: ticked and four still pending — the state an end-of-day checkpoint
#: cannot represent.
KILL_TICK = 10


class TestKillHook:
    def test_rejects_nonpositive_kill_tick(self):
        with pytest.raises(ValueError, match="kill_tick"):
            make_kill_hook(0)


class TestChaosEndToEnd:
    def test_serial_kill_mid_day_resumes_byte_identical(self, tmp_path):
        result = run_chaos(days=DAYS, kill_tick=KILL_TICK, workdir=tmp_path)
        assert result.victim_returncode < 0  # died by signal, not exit()
        # The per-tick chain covered every completed tick at kill time.
        assert result.frames >= KILL_TICK
        assert result.identical, result.summary()

    def test_injected_faults_survive_the_kill(self, tmp_path):
        # A fault mid-retry at the kill point must resume mid-backoff,
        # not restart at attempt one (the injector state is durable).
        result = run_chaos(
            days=DAYS,
            kill_tick=KILL_TICK,
            faults=("seagull:recommend:1:1", "doppler:recommend:0:1"),
            workdir=tmp_path,
        )
        assert result.victim_returncode < 0
        assert result.identical, result.summary()
