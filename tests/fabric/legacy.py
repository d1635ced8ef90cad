"""A test-side writer for the legacy ``@1`` checkpoint format.

The fabric writes only ``@2`` chains; ``@1`` files are read (and
migrated) through :func:`repro.fabric.store.restore_v1`.  The reader
tests get their ``@1`` bytes from here: the single-pickle envelope
older releases wrote, field for field.
"""

import pickle
from pathlib import Path

from repro.fabric import CheckpointStore
from repro.fabric.store import FORMAT_V1


def v1_bytes(plane) -> bytes:
    """``plane`` as a ``@1`` single-pickle snapshot."""
    obs = plane._obs
    plane.bind(None)
    try:
        state = {
            "day": plane.day,
            "now": plane.queue.now,
            "registry": plane.registry,
            "lifecycle": plane.lifecycle,
            "retry": plane.retry,
            "injector": plane.injector,
            "health": plane.health,
            "mirrored": plane._lifecycle_mirrored,
            "total_ticks": plane.total_ticks,
            "bindings": [
                {
                    "name": b.name,
                    "cadence_days": b.cadence_days,
                    "next_due": b.next_due,
                    "ticks": b.ticks,
                    "paused": b.record.paused,
                    "retry_state": (
                        b.record.retry.to_dict() if b.record.retry else None
                    ),
                    "max_attempts": b.record.max_attempts,
                    "driver": b.driver,
                }
                for b in plane.bindings
            ],
        }
        return pickle.dumps({"format": FORMAT_V1, "state": state}, protocol=4)
    finally:
        plane.bind(obs)


def save_as(plane, directory: Path, version: int) -> Path:
    """Checkpoint ``plane`` under ``directory`` as ``@1`` or ``@2``.

    Returns the path :meth:`CheckpointStore.load` reads it back from.
    """
    if version == 1:
        path = directory / "legacy.ckpt"
        path.write_bytes(v1_bytes(plane))
        return path
    CheckpointStore(directory / "store").save(plane)
    return directory / "store"
