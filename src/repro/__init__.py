"""repro: a reproduction of "Towards Building Autonomous Data Services on
Azure" (SIGMOD-Companion 2023).

The package mirrors the paper's structure:

- substrates: :mod:`repro.ml` (from-scratch ML), :mod:`repro.telemetry`,
  :mod:`repro.workloads` (synthetic trace generators),
  :mod:`repro.infra` (cluster simulation), :mod:`repro.engine`
  (SCOPE/Spark-flavoured query engine);
- the contribution: :mod:`repro.core`, one subpackage per autonomous
  service across the cloud-infrastructure, query-engine, and service
  layers;
- the shared runtime: :mod:`repro.obs` (tracing/metrics),
  :mod:`repro.parallel` (the one-worker next-day prefetch pool), and
  :mod:`repro.fabric` — the control plane hosting every service as a
  checkpointable, fault-tolerant feedback pipeline.

Quickstart::

    from repro.workloads import ScopeWorkloadGenerator
    from repro.core.peregrine import WorkloadRepository, analyze

    workload = ScopeWorkloadGenerator(rng=0).generate(n_days=7)
    stats = analyze(WorkloadRepository().ingest(workload))
    print(stats.summary_rows())
"""

__version__ = "1.0.0"

__all__ = [
    "ml",
    "telemetry",
    "workloads",
    "infra",
    "engine",
    "core",
    "obs",
    "parallel",
    "fabric",
]
