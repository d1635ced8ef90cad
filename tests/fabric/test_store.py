"""The checkpoint store: delta chains, durable schedules, compaction.

Covers the @2 format's distinguishing behaviours — dirty-tracked delta
frames, frozen-attr tokenization, chain compaction — plus the durable
schedule rows: a plane killed mid-backoff must resume at the pending
attempt (never attempt one), and a paused service must stay paused
across a restore.
"""

import json

import pytest

from repro.fabric import (
    CheckpointStore,
    ControlPlane,
    FaultInjector,
    RecordingDriver,
    RetryPolicy,
)
from repro.fabric.pipeline import PipelineDriver, TickContext
from tests.fabric.legacy import save_as, v1_bytes


class FrozenWorldDriver(PipelineDriver):
    """Driver with a bulky immutable input world and references into it."""

    name = "frozen"
    dirty_aware = True
    frozen_attrs = ("world",)

    def __init__(self):
        self.world = {i: list(range(500)) for i in range(20)}
        self.seen = []

    def observe(self, ctx: TickContext) -> None:
        self.mark_dirty()
        self.seen.append(ctx.day)
        self.held = self.world[ctx.day % 20]  # a reference INTO the world

    def final_report(self) -> dict:
        return {"seen": len(self.seen)}


class TestDeltaChain:
    def test_base_then_deltas(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        kinds = []
        for _ in range(3):
            plane.run_days(1)
            kinds.append(store.save(plane).kind)
        assert kinds == ["base", "delta", "delta"]
        frames = store.frames()
        assert [f["kind"] for f in frames] == kinds
        assert [f["seq"] for f in frames] == [0, 1, 2]

    def test_clean_service_skipped_in_delta(self, tmp_path):
        # A dirty-aware driver that stops mutating drops out of deltas.
        plane = ControlPlane()
        driver = FrozenWorldDriver()
        plane.register(driver)
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        store.save(plane)
        result = store.save(plane)  # nothing ran since the last save
        assert result.kind == "delta"
        assert result.saved == []
        assert result.clean == ["frozen"]

    def test_frozen_world_not_reserialized_in_deltas(self, tmp_path):
        plane = ControlPlane()
        plane.register(FrozenWorldDriver())
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        base = store.save(plane)
        plane.run_days(1)
        delta = store.save(plane)
        # The world is ~20x500 ints; the delta tokenizes it away.
        assert delta.bytes_written < base.bytes_written / 5
        restored = CheckpointStore.load(tmp_path / "store")
        driver = restored.bindings[0].driver
        assert driver.world == {i: list(range(500)) for i in range(20)}
        # References into the frozen world resolve to the same objects.
        assert driver.held is driver.world[1 % 20]
        assert driver.seen == [0, 1]

    def test_adopting_an_existing_chain_appends(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        store.save(plane)
        # A second store instance (a restarted process) continues it.
        adopted = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        assert adopted.save(plane).kind == "delta"
        assert [f["seq"] for f in adopted.frames()] == [0, 1]


class TestCompaction:
    def test_compact_collapses_to_one_base(self, tmp_path):
        plane = ControlPlane()
        plane.register(FrozenWorldDriver())
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        for _ in range(4):
            plane.run_days(1)
            store.save(plane)
        assert len(store.frames()) == 4
        removed = store.compact()
        assert removed == 3
        frames = store.frames()
        assert [f["kind"] for f in frames] == ["base"]
        # Nothing was lost: the compacted chain restores the same state,
        # including the frozen world stripped from delta frames.
        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.day == 4
        driver = restored.bindings[0].driver
        assert driver.seen == [0, 1, 2, 3]
        assert driver.held is driver.world[3 % 20]

    def test_chain_keeps_growing_after_compact(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        for _ in range(3):
            plane.run_days(1)
            store.save(plane)
        store.compact()
        plane.run_days(1)
        assert store.save(plane).kind == "delta"
        assert len(store.frames()) == 2
        assert CheckpointStore.load(tmp_path / "store").day == 4

    def test_compact_on_single_frame_is_noop(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        assert store.compact() == 0
        assert len(store.frames()) == 1


class TestDurableSchedule:
    def test_schedule_sidecar_is_readable_json(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(2)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        payload = json.loads(store.schedule_path.read_text())
        (row,) = payload["services"]
        assert row["name"] == "recorder"
        assert row["ticks"] == 2
        assert row["retries_remaining"] == 3
        (record,) = store.schedule()
        assert record.name == "recorder"
        assert record.next_due == pytest.approx(2.0)

    def test_resume_mid_backoff_continues_at_pending_attempt(self, tmp_path):
        # Two failures on day 1 push attempt 3's retry to t ~= 2.8 —
        # past the end of run_days(2).  The kill point is mid-backoff.
        def build():
            injector = FaultInjector()
            injector.inject("recorder", "observe", day=1, times=2)
            plane = ControlPlane(
                retry=RetryPolicy(backoff_base=0.6), injector=injector
            )
            plane.register(RecordingDriver())
            return plane

        straight = build()
        straight.run_days(4)

        interrupted = build()
        interrupted.run_days(2)
        record = interrupted.bindings[0].record
        assert record.retry is not None and record.retry.attempt == 3
        store = CheckpointStore(tmp_path / "store")
        store.save(interrupted)

        restored = CheckpointStore.load(tmp_path / "store")
        pending = restored.bindings[0].record.retry
        assert pending is not None
        assert pending.attempt == 3  # not attempt 0/1: no lost work
        assert pending.resume_at == pytest.approx(record.retry.resume_at)
        restored.run_days(2)
        assert restored.report_bytes() == straight.report_bytes()
        bucket = restored.health.counters[("recorder", "observe")]
        # Day 1's observe succeeded on its third attempt, exactly once.
        assert bucket["retried"] == 1
        assert bucket["degraded"] == 0
        assert bucket["attempts"] == 5  # 2 clean days + 3 attempts on day 1
        days = [d for s, d in restored.bindings[0].driver.calls if s == "observe"]
        # Day 2's slot passed while the backoff was pending: skipped,
        # exactly as in the uninterrupted run.
        assert days == [0, 1, 3]

    def test_paused_service_stays_paused_across_restore(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        plane.pause("recorder")
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)

        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.bindings[0].paused
        restored.run_days(2)
        driver = restored.bindings[0].driver
        assert [d for s, d in driver.calls if s == "observe"] == [0]
        restored.unpause("recorder")
        restored.run_days(1)
        assert [d for s, d in driver.calls if s == "observe"] == [0, 3]


class TestFormatNegotiation:
    def test_v1_file_loads_and_saves_over_as_v2(self, tmp_path):
        # @1 is read-only: the store loads it, and the first save onto
        # the same path writes a fresh @2 base in its place.
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(2)
        path = tmp_path / "legacy.ckpt"
        path.write_bytes(v1_bytes(plane))
        restored = CheckpointStore.load(path)
        assert restored.day == 2
        restored.run_days(1)
        assert CheckpointStore(path).save(restored).kind == "base"
        assert CheckpointStore.load(path).day == 3

    def test_store_takes_no_version(self, tmp_path):
        # One format is written: there is nothing to choose.
        with pytest.raises(TypeError):
            CheckpointStore(tmp_path / "store", version=1)
        with pytest.raises(TypeError):
            ControlPlane().checkpoint(tmp_path / "ckpt", version=1)

    def test_delta_requires_a_base(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        with pytest.raises(ValueError, match="no base snapshot"):
            store.delta(plane)


class TestFormatMigration:
    """A legacy @1 pickle upgrades to a @2 chain without behaviour drift."""

    FLEET = ("moneyball", "doppler")

    def _fleet(self, days: int) -> ControlPlane:
        from repro.fabric import FleetConfig, build_fleet

        plane = ControlPlane()
        build_fleet(plane, FleetConfig(seed=0, days=days, include=self.FLEET))
        return plane

    def test_v1_resume_saved_as_v2_chain_is_byte_identical(self, tmp_path):
        # The uninterrupted twin: seed-0 fleet straight through 4 days.
        straight = self._fleet(4)
        straight.run_days(4)
        expected = straight.report_bytes()
        straight.close()

        # Day-2 state captured in the legacy single-pickle format.
        fabric = self._fleet(4)
        fabric.run_days(2)
        (tmp_path / "legacy.ckpt").write_bytes(v1_bytes(fabric))
        fabric.close()

        # Migrate: load the @1 pickle, resume, checkpoint as a @2 chain.
        resumed = CheckpointStore.load(tmp_path / "legacy.ckpt")
        chain = CheckpointStore(tmp_path / "migrated")
        resumed.run_days(1)
        chain.save(resumed)
        resumed.run_days(1)
        chain.save(resumed)
        assert [f["kind"] for f in chain.frames()] == ["base", "delta"]
        assert resumed.report_bytes() == expected
        resumed.close()

        # The migrated chain restores to the same byte-identical report.
        restored = CheckpointStore.load(tmp_path / "migrated")
        assert restored.report_bytes() == expected
        restored.close()

    def test_pre_tuner_core_state_still_restores(self, tmp_path):
        # Checkpoints written before the tuner rode along lack the
        # "tuner" core key; load must tolerate its absence.
        import pickle

        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        (tmp_path / "legacy.ckpt").write_bytes(v1_bytes(plane))
        payload = pickle.loads((tmp_path / "legacy.ckpt").read_bytes())
        assert "tuner" not in payload["state"]
        restored = CheckpointStore.load(tmp_path / "legacy.ckpt")
        assert restored.day == 1

    def test_core_state_with_tuner_key_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # Chains written while a granularity tuner rode every core frame
        # carry a "tuner" entry; load ignores it and resumes exactly.
        from repro.fabric import FleetConfig, build_fleet

        def fleet() -> ControlPlane:
            plane = ControlPlane()
            build_fleet(
                plane, FleetConfig(days=3, include=("moneyball", "doppler"))
            )
            return plane

        straight = fleet()
        straight.run_days(3)
        expected = straight.report_bytes()

        core_state = CheckpointStore._core_state
        legacy_tuner = {"alpha": 0.3, "overhead": 0.004, "profiles": {}}
        monkeypatch.setattr(
            CheckpointStore,
            "_core_state",
            staticmethod(lambda plane: {**core_state(plane), "tuner": legacy_tuner}),
        )
        interrupted = fleet()
        interrupted.run_days(1)
        CheckpointStore(tmp_path / "store").save(interrupted)
        monkeypatch.undo()

        frames = CheckpointStore(tmp_path / "store").frames()
        assert b"tuner" in frames[-1]["core"]
        restored = CheckpointStore.load(tmp_path / "store")
        restored.run_days(2)
        assert restored.report_bytes() == expected


    @pytest.mark.parametrize("version", [1, 2])
    def test_eager_peregrine_chain_fails_loudly(self, tmp_path, version):
        # Chains written by the removed eager fleet wiring hand
        # Peregrine a per-day job dict, not a day stream.  Restore must
        # name that cause instead of degrading Peregrine every day.
        from repro.fabric.fleet import PeregrineDriver

        plane = ControlPlane()
        plane.register(PeregrineDriver(jobs_by_day={0: [], 1: []}))
        path = save_as(plane, tmp_path, version)
        with pytest.raises(ValueError, match="per-day job dict"):
            CheckpointStore.load(path)


class TestPerTickChain:
    """A chain persisted after every tick restores at the day it holds."""

    FLEET = ("moneyball", "doppler")

    def _fleet(self, days: int) -> ControlPlane:
        from repro.fabric import FleetConfig, build_fleet

        plane = ControlPlane()
        build_fleet(plane, FleetConfig(seed=0, days=days, include=self.FLEET))
        return plane

    def test_restore_reports_the_days_run_and_resumes_identically(
        self, tmp_path
    ):
        run, total = 3, 5
        straight = self._fleet(total)
        straight.run_days(total)
        expected = straight.report_bytes()
        straight.close()

        plane = self._fleet(total)
        store = CheckpointStore(tmp_path / "store")
        plane.attach_store(store)
        for _ in range(run):
            plane.run_days(1)
        # One frame per tick: fixing the day adds no frame per call.
        assert len(store.frames()) == plane.total_ticks
        plane.close()

        restored = ControlPlane.restore(tmp_path / "store")
        assert restored.day == run
        restored.attach_store(CheckpointStore(tmp_path / "store"))
        restored.run_days(total - restored.day)
        assert restored.day == total
        assert restored.report_bytes() == expected
        restored.close()
