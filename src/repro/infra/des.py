"""A minimal discrete-event simulation core (priority-queue driven)."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.obs.events import ObsEvent
    from repro.obs.runtime import ObservabilityRuntime


@dataclass(order=True)
class Event:
    """A scheduled callback; ties break by insertion order."""

    time: float
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(compare=False, default="")

    def to_events(self) -> "list[ObsEvent]":
        """This DES event as the shared observability event shape.

        The timestamp is *simulated* time — replaying a simulation into
        an :class:`~repro.obs.events.EventLog` reconstructs its timeline.
        """
        from repro.obs.events import ObsEvent

        return [
            ObsEvent(
                timestamp=self.time,
                layer="infra",
                source="des",
                kind=self.label or "event",
            )
        ]


class EventQueue:
    """Run callbacks in time order; actions may schedule further events.

    Pass an :class:`~repro.obs.runtime.ObservabilityRuntime` as ``obs``
    to get a span around each :meth:`run` plus one layer-tagged event
    per processed DES event (stamped with simulated time).
    """

    def __init__(self, obs: "ObservabilityRuntime | None" = None) -> None:
        self._heap: list[Event] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.processed = 0
        self._obs = obs

    def bind(self, obs: "ObservabilityRuntime | None") -> "EventQueue":
        self._obs = obs
        return self

    def schedule(self, time: float, action: Callable[[], Any], label: str = "") -> Event:
        # NaN comparisons are all False, so a NaN time would sail past the
        # past-check and silently corrupt heap ordering — reject it here.
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, time={time})"
            )
        event = Event(time, next(self._sequence), action, label)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(
        self, delay: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        if not math.isfinite(delay):
            raise ValueError(f"delay must be finite, got {delay}")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, action, label)

    def run(self, until: float | None = None) -> None:
        """Process events until the queue drains or ``until`` is reached."""
        if self._obs is None:
            self._run(until)
            return
        with self._obs.span("infra.des.run", layer="infra") as span:
            before = self.processed
            self._run(until)
            span.attributes["processed"] = self.processed - before
            span.attributes["sim_now"] = round(self.now, 6)

    def _run(self, until: float | None) -> None:
        obs = self._obs
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return
            event = heapq.heappop(self._heap)
            self.now = event.time
            event.action()
            self.processed += 1
            if obs is not None:
                obs.replay(event)
        if until is not None:
            self.now = max(self.now, until)

    def clear(self) -> int:
        """Drop every pending event; returns how many were dropped.

        The rebuild hook for schedulers that treat the heap as a cache
        over durable schedule state (see
        :meth:`repro.fabric.plane.ControlPlane.rebuild_schedule`): clear,
        then re-arm from the records.  ``now`` and ``processed`` are
        untouched so re-armed events keep a consistent clock.
        """
        dropped = len(self._heap)
        self._heap.clear()
        return dropped

    def next_time(self) -> float | None:
        """Time of the next pending event, or ``None`` when drained."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)
