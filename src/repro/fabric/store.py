"""Durable schedule state and incremental checkpoints for the fabric.

This module is the fabric's persistence layer, in two halves:

**Schedule records.**  Every hosted pipeline owns a
:class:`ScheduleRecord` — interval, next-run time, tick count, paused
flag, and (when a stage is waiting out a retry backoff) a
:class:`RetryState`.  The records are the source of truth for
scheduling: the DES heap is only a cache rebuilt from them
(:meth:`~repro.fabric.plane.ControlPlane.rebuild_schedule`), which is
what lets a killed-and-restarted fleet resume exactly where it died,
including mid-backoff retries and paused services (the Pipelit
self-rescheduling pattern: each run persists its own next-run/retry
state instead of trusting an in-memory scheduler).

**Checkpoint store.**  :class:`CheckpointStore` is the one checkpoint
API.  It writes one format and reads two:

- ``repro.fabric/checkpoint@1`` — the legacy single-pickle full
  snapshot (see DESIGN.md §6).  Read-only: :meth:`CheckpointStore.load`
  migrates it through :func:`restore_v1`, and a resumed run saves
  ``@2``.
- ``repro.fabric/checkpoint@2`` — a **base snapshot plus an
  append-only chain of deltas**.  Each :meth:`CheckpointStore.save`
  appends one frame containing the always-changing core state
  (registry, lifecycle, health, clock) plus the serialized drivers of
  only the services that changed since the previous frame —
  *O(changed services)*, not *O(world)*.  Dirty services are found via
  :meth:`~repro.fabric.pipeline.PipelineDriver.mark_dirty` when the
  driver opts in (``dirty_aware = True``) and via a content-hash
  fallback otherwise.  :meth:`CheckpointStore.compact` collapses the
  chain back into a single base frame.

Cross-frame object identity is preserved with pickle persistent ids:
driver blobs never embed the shared :class:`~repro.ml.registry.
ModelRegistry` (or the lifecycle) — they reference it symbolically and
are re-attached to the restored instance on load, so a feedback loop
restored from a day-3 delta still mutates the same registry the
lifecycle owns.

A ``schedule.json`` sidecar (atomic replace) mirrors the latest
schedule records in human-readable form, so operators can inspect
where a crashed fleet will resume without unpickling anything.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.fabric.pipeline import PipelineDriver
    from repro.fabric.plane import ControlPlane
    from repro.obs.runtime import ObservabilityRuntime

#: Legacy full-pickle format tag (read-only: loaded, never written).
FORMAT_V1 = "repro.fabric/checkpoint@1"
#: Base + append-only delta chain (the one format written).
FORMAT_V2 = "repro.fabric/checkpoint@2"
#: Chain file name used when the store is given a directory.
CHAIN_FILENAME = "fabric.ckpt"
#: Sidecar with the latest schedule records, as JSON.
SCHEDULE_FILENAME = "schedule.json"

#: Persistent-id tokens for objects shared between driver blobs and the
#: core frame.  Driver pickles reference these symbolically so every
#: frame — whichever day it was written — re-attaches to the restored
#: core instances.
_SHARED_TOKENS = ("@registry", "@lifecycle")


# ---------------------------------------------------------------------------
# schedule records
# ---------------------------------------------------------------------------


@dataclass
class RetryState:
    """A stage waiting out its backoff: the durable mid-tick position.

    ``attempt`` is the 1-based number of the *upcoming* attempt;
    ``resume_at`` is the DES time the retry fires.  ``day``/``tick``
    pin the interrupted tick's context and ``degraded`` carries the
    tick's degraded flag across the backoff, so a resumed process
    rebuilds the exact :class:`~repro.fabric.pipeline.TickContext`.
    """

    stage: str
    stage_index: int
    attempt: int
    resume_at: float
    day: int
    tick: int
    degraded: bool = False

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "stage_index": self.stage_index,
            "attempt": self.attempt,
            "resume_at": self.resume_at,
            "day": self.day,
            "tick": self.tick,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryState":
        return cls(**payload)


@dataclass
class ScheduleRecord:
    """One pipeline's durable schedule row (the Pipelit pattern).

    The control plane mutates these in place as ticks run; checkpoints
    persist them verbatim, and restore rebuilds the DES heap from them
    alone — pending events are never serialized.
    """

    name: str
    index: int
    cadence_days: float
    next_due: float
    ticks: int = 0
    paused: bool = False
    max_attempts: int = 3
    retry: RetryState | None = None

    @property
    def retries_remaining(self) -> int:
        """Attempts left for the stage currently (or next) executing."""
        if self.retry is None:
            return self.max_attempts
        return max(0, self.max_attempts - (self.retry.attempt - 1))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "cadence_days": self.cadence_days,
            "next_due": self.next_due,
            "ticks": self.ticks,
            "paused": self.paused,
            "max_attempts": self.max_attempts,
            "retries_remaining": self.retries_remaining,
            "retry": self.retry.to_dict() if self.retry else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScheduleRecord":
        retry = payload.get("retry")
        return cls(
            name=payload["name"],
            index=payload["index"],
            cadence_days=payload["cadence_days"],
            next_due=payload["next_due"],
            ticks=payload.get("ticks", 0),
            paused=payload.get("paused", False),
            max_attempts=payload.get("max_attempts", 3),
            retry=RetryState.from_dict(retry) if retry else None,
        )


# ---------------------------------------------------------------------------
# shared-reference pickling
# ---------------------------------------------------------------------------


class _SharedRefPickler(pickle.Pickler):
    """Pickle a driver, replacing shared core objects with tokens."""

    def __init__(self, buffer: io.BytesIO, shared: dict[int, str]) -> None:
        super().__init__(buffer, protocol=4)
        self._shared = shared

    def persistent_id(self, obj: object) -> str | None:  # noqa: D102
        return self._shared.get(id(obj))


class _SharedRefUnpickler(pickle.Unpickler):
    """Unpickle a driver, resolving tokens to the restored core objects."""

    def __init__(self, buffer: io.BytesIO, objects: dict[str, object]) -> None:
        super().__init__(buffer)
        self._objects = objects

    def persistent_load(self, pid: str) -> object:  # noqa: D102
        try:
            return self._objects[pid]
        except KeyError:
            raise pickle.UnpicklingError(f"unknown shared ref {pid!r}") from None


def _dumps_shared(obj: object, shared: dict[int, str]) -> bytes:
    buffer = io.BytesIO()
    _SharedRefPickler(buffer, shared).dump(obj)
    return buffer.getvalue()


def _loads_shared(data: bytes, objects: dict[str, object]) -> object:
    return _SharedRefUnpickler(io.BytesIO(data), objects).load()


#: Types never worth a persistent-id token (cheap to re-pickle, and
#: interning/caching makes their identity meaningless anyway).
_ATOMIC = (type(None), bool, int, float, complex, str, bytes)


def _frozen_entries(driver: "PipelineDriver") -> list[tuple[str, object]]:
    """Deterministic ``(token, object)`` pairs for a driver's frozen attrs.

    Walks the declared
    :attr:`~repro.fabric.pipeline.PipelineDriver.frozen_attrs` values,
    descending only through list/tuple/dict containers and addressing
    each node by attribute name, index, or key — never by hash or
    traversal order — so the identical walk over a *pickled copy* of the
    structure (the base frame's, in another process) yields the same
    token for the same logical object.  Delta frames tokenize every
    reference to these objects; load resolves the tokens against the
    base frame.
    """
    entries: list[tuple[str, object]] = []

    def walk(path: str, value: object) -> None:
        if isinstance(value, _ATOMIC):
            return
        entries.append((path, value))
        if isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{path}[{i}]", item)
        elif isinstance(value, dict):
            for key, item in value.items():
                if key is None or isinstance(key, (str, int, bool, float)):
                    walk(f"{path}[{key!r}]", item)

    for attr in type(driver).frozen_attrs:
        if attr in driver.__dict__:
            walk(f"@frozen:{attr}", driver.__dict__[attr])
    return entries


def _blob_hash(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# the checkpoint store
# ---------------------------------------------------------------------------


@dataclass
class SaveResult:
    """What one :meth:`CheckpointStore.save` wrote."""

    kind: str  # "base" | "delta"
    path: Path
    bytes_written: int
    saved: list[str] = field(default_factory=list)
    clean: list[str] = field(default_factory=list)


class CheckpointStore:
    """Save/load fabric checkpoints.

    ``CheckpointStore(path)`` writes the ``@2`` base+delta chain (the
    first :meth:`save` writes the base, later saves append deltas).
    :meth:`load` reads ``@2`` chains and legacy ``@1`` full pickles
    from a file or a store directory.  ``path`` may be a directory (the
    chain lives at ``<path>/fabric.ckpt`` with ``schedule.json`` beside
    it) or a file (the sidecar gains a ``.schedule.json`` suffix).
    """

    def __init__(self, path) -> None:
        self.path = self._resolve(Path(path))
        self._seq = 0
        self._has_base = False
        self._hashes: dict[str, str] = {}
        if self.path.exists() and self.path.stat().st_size > 0:
            self._adopt_chain()

    # -- paths -----------------------------------------------------------------
    @staticmethod
    def _resolve(path: Path) -> Path:
        if path.is_dir() or path.suffix == "":
            path.mkdir(parents=True, exist_ok=True)
            return path / CHAIN_FILENAME
        return path

    @property
    def schedule_path(self) -> Path:
        if self.path.name == CHAIN_FILENAME:
            return self.path.with_name(SCHEDULE_FILENAME)
        return self.path.with_name(self.path.name + ".schedule.json")

    # -- chain bookkeeping -------------------------------------------------------
    def _adopt_chain(self) -> None:
        """Continue an existing chain: pick up seq/hashes from its frames."""
        try:
            frames = self.frames()
        except (pickle.UnpicklingError, EOFError, ValueError):
            return  # a @1 file or corrupt chain: save() writes a fresh base
        for frame in frames:
            self._seq = frame["seq"] + 1
            if frame["kind"] == "base":
                self._has_base = True
                self._hashes = dict(frame["hashes"])
            else:
                self._hashes.update(frame["hashes"])

    def frames(self) -> list[dict]:
        """Every frame in the @2 chain, oldest first (introspection)."""
        frames: list[dict] = []
        with self.path.open("rb") as fh:
            while True:
                try:
                    frame = pickle.load(fh)
                except EOFError:
                    break
                if not isinstance(frame, dict) or frame.get("format") != FORMAT_V2:
                    raise ValueError(
                        f"{self.path} is not a {FORMAT_V2} chain"
                    )
                frames.append(frame)
        return frames

    def schedule(self) -> list[ScheduleRecord]:
        """The latest schedule records, from the JSON sidecar."""
        payload = json.loads(self.schedule_path.read_text())
        return [ScheduleRecord.from_dict(entry) for entry in payload["services"]]

    # -- saving ------------------------------------------------------------------
    def save(self, plane: "ControlPlane") -> SaveResult:
        """Persist ``plane``: a base frame first, then deltas."""
        if not self._has_base:
            return self.snapshot(plane)
        return self.delta(plane)

    def snapshot(self, plane: "ControlPlane") -> SaveResult:
        """Append a full base frame (every service, dirty or not)."""
        return self._append_frame(plane, kind="base")

    def delta(self, plane: "ControlPlane") -> SaveResult:
        """Append a delta frame holding only the changed services."""
        if not self._has_base:
            raise ValueError(
                "no base snapshot in the chain yet: call save() or snapshot() first"
            )
        return self._append_frame(plane, kind="delta")

    def compact(self) -> int:
        """Collapse the chain to one base frame; returns frames removed.

        Restores the merged plane and writes it back as a single fresh
        base (so frozen attrs stripped from delta frames are re-inflated
        into full blobs), then atomically replaces the chain file.
        """
        frames = self.frames()
        if len(frames) <= 1:
            return 0
        plane = self._restore_v2()
        staging = CheckpointStore(self.path.with_name(self.path.name + ".tmp"))
        staging._seq = frames[-1]["seq"]
        staging.snapshot(plane)
        staging.schedule_path.replace(self.schedule_path)
        staging.path.replace(self.path)
        self._seq = staging._seq
        self._has_base = True
        self._hashes = dict(staging._hashes)
        return len(frames) - 1

    def _append_frame(self, plane: "ControlPlane", kind: str) -> SaveResult:
        obs = plane._obs
        plane.bind(None)
        try:
            shared = {
                id(plane.registry): "@registry",
                id(plane.lifecycle): "@lifecycle",
            }
            core = pickle.dumps(self._core_state(plane), protocol=4)
            services: dict[str, bytes] = {}
            hashes: dict[str, str] = {}
            clean: list[str] = []
            for binding in plane.bindings:
                driver = binding.driver
                if kind != "base" and type(driver).dirty_aware:
                    if not driver.dirty:
                        clean.append(binding.name)
                        continue
                    # Delta blobs tokenize references into the driver's
                    # frozen input worlds; load resolves them from the
                    # base frame's copy.
                    refs = dict(shared)
                    for token, obj in _frozen_entries(driver):
                        refs.setdefault(id(obj), token)
                    blob = _serialize_driver(driver, refs)
                else:
                    blob = _serialize_driver(driver, shared)
                    digest = _blob_hash(blob)
                    if kind != "base" and self._hashes.get(binding.name) == digest:
                        clean.append(binding.name)
                        continue
                    hashes[binding.name] = digest
                services[binding.name] = blob
            frame = {
                "format": FORMAT_V2,
                "kind": kind,
                "seq": self._seq,
                "day": plane.day,
                "core": core,
                "services": services,
                "hashes": hashes,
                "schedule": [b.record.to_dict() for b in plane.bindings],
                "clean": clean,
            }
            data = pickle.dumps(frame, protocol=4)
            # A fresh base supersedes the whole chain; deltas append.
            mode = "wb" if kind == "base" else "ab"
            with self.path.open(mode) as fh:
                fh.write(data)
            self._write_schedule(plane)
            self._seq += 1
            self._has_base = True
            self._hashes.update(hashes)
            for binding in plane.bindings:
                binding.driver.clear_dirty()
        finally:
            plane.bind(obs)
        self._emit_saved(plane, kind, len(data), list(services), clean)
        return SaveResult(
            kind=kind,
            path=self.path,
            bytes_written=len(data),
            saved=sorted(services),
            clean=sorted(clean),
        )

    def _write_schedule(self, plane: "ControlPlane") -> None:
        payload = {
            "format": FORMAT_V2,
            "day": plane.day,
            "now": plane.queue.now,
            "services": [b.record.to_dict() for b in plane.bindings],
        }
        tmp = self.schedule_path.with_name(self.schedule_path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(self.schedule_path)

    @staticmethod
    def _core_state(plane: "ControlPlane") -> dict:
        return {
            "day": plane.day,
            "now": plane.queue.now,
            "registry": plane.registry,
            "lifecycle": plane.lifecycle,
            "retry": plane.retry,
            "injector": plane.injector,
            "health": plane.health,
            "mirrored": plane._lifecycle_mirrored,
            "total_ticks": plane.total_ticks,
        }

    def _emit_saved(
        self,
        plane: "ControlPlane",
        kind: str,
        n_bytes: int,
        saved: list[str],
        clean: list[str],
    ) -> None:
        if plane._obs is None:
            return
        plane._obs.emit(
            "fabric",
            "fabric",
            "checkpoint_delta" if kind == "delta" else "checkpoint",
            value=float(n_bytes),
            timestamp=plane.queue.now,
            day=plane.day,
            kind_of_save=kind,
            saved=len(saved),
            clean=len(clean),
        )

    # -- loading -----------------------------------------------------------------
    @classmethod
    def load(
        cls, path, obs: "ObservabilityRuntime | None" = None
    ) -> "ControlPlane":
        """Rebuild a plane from ``path`` — @1 file, @2 chain, or store dir."""
        chain = cls._resolve(Path(path))
        with chain.open("rb") as fh:
            first = pickle.load(fh)
        if not isinstance(first, dict):
            raise ValueError(f"{chain} is not a fabric checkpoint")
        fmt = first.get("format")
        if fmt == FORMAT_V1:
            plane = restore_v1(first)
        elif fmt == FORMAT_V2:
            plane = cls(chain)._restore_v2()
        else:
            raise ValueError(
                f"not a fabric checkpoint (expected format {FORMAT_V1!r}"
                f" or {FORMAT_V2!r}, got {fmt!r})"
            )
        if obs is not None:
            with obs.span("fabric.checkpoint.load", layer="fabric", day=plane.day):
                plane.bind(obs)
                plane._emit("restore", value=float(plane.day))
        return plane

    def _restore_v2(self) -> "ControlPlane":
        frames = self.frames()
        if not frames:
            raise ValueError(f"{self.path} holds no checkpoint frames")
        core_bytes, blobs, _, schedule, _, base_blobs = self._merge(frames)
        core = pickle.loads(core_bytes)
        plane = _plane_from_core(core)
        objects = {"@registry": plane.registry, "@lifecycle": plane.lifecycle}
        records = sorted(
            (ScheduleRecord.from_dict(entry) for entry in schedule),
            key=lambda r: r.index,
        )
        from repro.fabric.plane import ServiceBinding

        for record in records:
            if record.name not in blobs:
                raise ValueError(
                    f"checkpoint chain is missing service {record.name!r}"
                )
            blob = blobs[record.name]
            base_blob = base_blobs.get(record.name)
            if base_blob is not None and blob is not base_blob:
                # The newest blob came from a delta frame, which may
                # reference the driver's frozen input worlds by token:
                # unpickle the base frame's copy and resolve against it.
                donor = _loads_shared(base_blob, objects)
                refs = dict(objects)
                for token, obj in _frozen_entries(donor):
                    refs[token] = obj
                driver = _loads_shared(blob, refs)
            else:
                driver = _loads_shared(blob, objects)
            plane.bindings.append(ServiceBinding(driver=driver, record=record))
        plane.rebuild_schedule()
        return plane

    @staticmethod
    def _merge(frames: list[dict]):
        """Fold a chain: newest core/schedule, newest blob per service."""
        base_at = max(
            (i for i, f in enumerate(frames) if f["kind"] == "base"), default=None
        )
        if base_at is None:
            raise ValueError("checkpoint chain has no base frame")
        live = frames[base_at:]
        services: dict[str, bytes] = {}
        hashes: dict[str, str] = {}
        for frame in live:
            services.update(frame["services"])
            hashes.update(frame["hashes"])
        last = live[-1]
        return (
            last["core"],
            services,
            hashes,
            last["schedule"],
            last["day"],
            live[0]["services"],
        )


def _serialize_driver(driver: "PipelineDriver", shared: dict[int, str]) -> bytes:
    """Pickle one driver with shared refs tokenized and dirty flag stripped."""
    had_flag = "_fabric_dirty" in driver.__dict__
    flag = driver.__dict__.pop("_fabric_dirty", None)
    try:
        return _dumps_shared(driver, shared)
    finally:
        if had_flag:
            driver.__dict__["_fabric_dirty"] = flag


def _plane_from_core(core: dict) -> "ControlPlane":
    from repro.fabric.plane import ControlPlane

    # Older chains may carry extra core keys (a "tuner" entry); restore
    # reads only the keys below, so they load unchanged.
    plane = ControlPlane(
        registry=core["registry"],
        retry=core["retry"],
        injector=core["injector"],
    )
    plane.lifecycle = core["lifecycle"]
    plane.health = core["health"]
    plane.day = core["day"]
    plane._lifecycle_mirrored = core["mirrored"]
    plane.total_ticks = core.get("total_ticks", 0)
    plane.queue.now = core["now"]
    return plane


# ---------------------------------------------------------------------------
# the @1 format (read-only: loaded and migrated, never written)
# ---------------------------------------------------------------------------


def restore_v1(payload: dict) -> "ControlPlane":
    """Rebuild a plane from an unpickled @1 envelope."""
    from repro.fabric.plane import ServiceBinding

    if not isinstance(payload, dict) or payload.get("format") != FORMAT_V1:
        raise ValueError(
            f"not a fabric checkpoint (expected format {FORMAT_V1!r})"
        )
    state = payload["state"]
    plane = _plane_from_core(
        {
            "registry": state["registry"],
            "retry": state["retry"],
            "injector": state["injector"],
            "lifecycle": state["lifecycle"],
            "health": state["health"],
            "day": state["day"],
            "mirrored": state["mirrored"],
            "total_ticks": state.get("total_ticks", 0),
            "now": state["now"],
        }
    )
    for index, saved in enumerate(state["bindings"]):
        retry_state = saved.get("retry_state")
        record = ScheduleRecord(
            name=saved["name"],
            index=index,
            cadence_days=saved["cadence_days"],
            next_due=saved["next_due"],
            ticks=saved["ticks"],
            paused=saved.get("paused", False),
            max_attempts=saved.get("max_attempts", plane.retry.max_attempts),
            retry=RetryState.from_dict(retry_state) if retry_state else None,
        )
        plane.bindings.append(
            ServiceBinding(driver=saved["driver"], record=record)
        )
    plane.rebuild_schedule()
    return plane


def records_for(plane: "ControlPlane") -> "Iterable[ScheduleRecord]":
    """The plane's live schedule records, in registration order."""
    return [b.record for b in plane.bindings]
