"""Wrap the program's public entry points from outside, one span per layer.

:func:`instrument` patches each entry point listed in :data:`SPANS` (and
the few that need custom handling below) for the lifetime of a ``with``
block, then puts every original back.  Span names are the per-layer
metric stems: ``peregrine.ingest`` becomes ``peregrine.ingest.s``.

Nesting is expected and handled by self time: ``engine.optimize`` runs
inside ``svc.steering``, and ``fabric.day_source`` (and the
``workloads.day_batch`` it may call) inside whichever stage first asks
for the day, so generation and prefetch waits never land on a service.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

from spans import Tracer

#: (module, owner class, method, span name).
SPANS = (
    ("repro.workloads.scope", "ScopeWorkloadGenerator", "day_batch",
     "workloads.day_batch"),
    ("repro.fabric.streams", "StreamingJobSource", "day_batch",
     "fabric.day_source"),
    ("repro.engine.optimizer", "Optimizer", "optimize",
     "engine.optimize"),
    ("repro.fabric.plane", "ControlPlane", "run_days", "fabric.run"),
    ("repro.fabric.store", "CheckpointStore", "save",
     "fabric.store.save"),
    ("repro.serve.session", "SessionManager", "get", "serve.session"),
    ("repro.serve.admission", "AdmissionController", "admit",
     "serve.admission"),
    ("repro.serve.cache", "RecommendationCache", "get", "serve.cache"),
    ("repro.serve.cache", "RecommendationCache", "put", "serve.cache"),
)

#: Driver classes whose ``serve``/``serve_many`` the query plane calls.
DISPATCH_OWNERS = (
    ("repro.fabric.pipeline", "PipelineDriver", ("serve", "serve_many")),
    ("repro.fabric.fleet", "PeregrineDriver", ("serve",)),
)


class LayerProbe:
    """What :func:`instrument` records beside the spans."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: Seconds each micro-batched request waited for its flush.
        self.batch_wait = array("d")
        self.batch_submits = 0
        self.jobs_ingested = 0


def _owner(module_name: str, owner: str):
    import importlib

    return getattr(importlib.import_module(module_name), owner)


@contextmanager
def instrument(probe: LayerProbe):
    """Patch every layer boundary to record into ``probe``; undo on exit."""
    tracer = probe.tracer
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for module_name, owner_name, method, span in SPANS:
            owner = _owner(module_name, owner_name)
            patch(
                owner, method,
                tracer.wrap(owner.__dict__[method], span),
            )

        # Peregrine: ingest (which spills inside) counts its rows too;
        # ``analyze`` is looked up on the package at every learn stage.
        repo_cls = _owner("repro.core.peregrine", "WorkloadRepository")
        ingest = tracer.wrap(repo_cls.__dict__["ingest_batch"], "peregrine.ingest")

        def ingest_batch(self, batch):
            rows = ingest(self, batch)
            probe.jobs_ingested += rows
            return rows

        patch(repo_cls, "ingest_batch", ingest_batch)
        package = _owner("repro.core", "peregrine")
        patch(package, "analyze",
              tracer.wrap(package.__dict__["analyze"], "peregrine.analyze"))

        # Restores: ``ControlPlane.restore`` calls the ``load`` classmethod.
        store_cls = _owner("repro.fabric.store", "CheckpointStore")
        load = tracer.wrap(store_cls.__dict__["load"].__func__, "fabric.store.load")
        patch(store_cls, "load", classmethod(load))

        # Services: every stage callable a binding hands the plane.
        driver_cls = _owner("repro.fabric.pipeline", "PipelineDriver")
        stages = driver_cls.__dict__["stages"]

        def traced_stages(self):
            span = f"svc.{self.name}"
            return [(stage, tracer.wrap(fn, span)) for stage, fn in stages(self)]

        patch(driver_cls, "stages", traced_stages)

        # Dispatch: driver serve calls made by the query plane, which
        # makes them with no span open.  Stages route their own work
        # through the same ``serve`` contract inside their spans; those
        # calls are not dispatches.
        for module_name, owner_name, methods in DISPATCH_OWNERS:
            owner = _owner(module_name, owner_name)
            for method in methods:
                patch(owner, method, _dispatch(tracer, owner.__dict__[method]))

        batcher_cls = _owner("repro.serve.batching", "MicroBatcher")
        submit = batcher_cls.__dict__["submit"]

        async def timed_submit(self, endpoint, driver, request):
            probe.batch_submits += 1
            started = time.perf_counter()
            try:
                return await submit(self, endpoint, driver, request)
            finally:
                probe.batch_wait.append(time.perf_counter() - started)

        patch(batcher_cls, "submit", timed_submit)
        yield probe
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _dispatch(tracer: Tracer, fn):
    traced = tracer.wrap(fn, "serve.dispatch")

    def dispatch(*args, **kwargs):
        if tracer.innermost() is not None:
            return fn(*args, **kwargs)
        return traced(*args, **kwargs)

    return dispatch
