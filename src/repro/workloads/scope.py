"""SCOPE-like recurring job and pipeline trace generator.

Section 4.2's learning opportunities all come from workload structure:
"over 60% of jobs are recurring (involving periodic runs of scripts with
the same operations but different predicate values), and nearly 40% of
daily jobs share common subexpressions with at least one other job", and
"70% of daily SCOPE jobs have inter-job dependencies".

The generator is calibrated to those statistics:

- *recurring templates* re-run daily with drifting predicate literals
  (same template signature, new strict signature),
- a pool of *shared fragments* — day-parameterized subplans whose
  literals depend only on (fragment, day) — appears inside several
  templates, so jobs within a day share strictly-equal subexpressions,
- templates are chained into *pipelines*: a consumer scans the derived
  output table of its producer and depends on the producer's job,
- the remainder are *ad-hoc* one-off jobs with random structure.
"""

from __future__ import annotations

import gc
from binascii import hexlify
from copy import deepcopy
from dataclasses import dataclass, field
from hashlib import sha1
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.engine import (
    Aggregate,
    Catalog,
    ColumnStats,
    DefaultCardinalityEstimator,
    Expression,
    Filter,
    Join,
    Predicate,
    Project,
    Scan,
    TableDef,
)
from repro.engine.signatures import (
    _digest,
    enumerate_all_signatures,
    signatures,
)
from repro.engine.skeleton import plan_skeleton, skeleton_text

if TYPE_CHECKING:
    from repro.core.peregrine.repository import JobBatch

HOURS_PER_DAY = 24.0

#: C-level sort key for the per-day stable sort (same order as the old
#: ``lambda j: j.submit_hour``, measurably cheaper at 100k+ jobs/day).
_BY_SUBMIT_HOUR = attrgetter("submit_hour")


@dataclass
class Job:
    """A single submitted job (one plan, one submit time)."""

    job_id: str
    plan: Expression
    submit_hour: float
    template_id: int | None = None   # None marks an ad-hoc job
    pipeline_id: int | None = None
    params: dict[str, float] = field(default_factory=dict)
    depends_on: tuple[str, ...] = ()

    @property
    def is_recurring(self) -> bool:
        return self.template_id is not None

    @property
    def day(self) -> int:
        return int(self.submit_hour // HOURS_PER_DAY)


@dataclass
class Workload:
    """A multi-day trace of jobs plus the catalog they run against.

    ``by_day`` returns memoized tuples: the trace is immutable once
    built, so callers get zero-copy views instead of a fresh list per
    call (it sits in per-day fabric loops).
    """

    jobs: list[Job]
    catalog: Catalog
    n_days: int

    def __post_init__(self) -> None:
        self._day_cache: dict[int, tuple[Job, ...]] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_day_cache"] = {}
        return state

    def __len__(self) -> int:
        return len(self.jobs)

    def by_day(self, day: int) -> tuple[Job, ...]:
        cached = self._day_cache.get(day)
        if cached is None:
            cached = tuple(j for j in self.jobs if j.day == day)
            self._day_cache[day] = cached
        return cached

    def by_template(self, template_id: int) -> list[Job]:
        return [j for j in self.jobs if j.template_id == template_id]

    def recurring_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.is_recurring for j in self.jobs) / len(self.jobs)

    def pipeline_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.pipeline_id is not None for j in self.jobs) / len(self.jobs)

    def dependency_fraction(self) -> float:
        """Fraction of jobs participating in an inter-job dependency."""
        if not self.jobs:
            return 0.0
        involved: set[str] = set()
        for job in self.jobs:
            if job.depends_on:
                involved.add(job.job_id)
                involved.update(job.depends_on)
        return len(involved) / len(self.jobs)

    def job(self, job_id: str) -> Job:
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise KeyError(f"unknown job {job_id!r}")


@dataclass
class ScopeWorkloadConfig:
    """Calibration knobs (defaults match the paper's published fractions)."""

    n_recurring_templates: int = 30
    recurring_fraction: float = 0.65
    n_shared_fragments: int = 6
    shared_fragment_templates: float = 0.65  # templates embedding a fragment
    pipeline_fraction: float = 0.8          # templates that sit in pipelines
    pipeline_length: tuple[int, int] = (2, 4)
    adhoc_dependency_fraction: float = 0.5  # ad-hoc jobs reading pipeline output
    drift_per_day: float = 0.01             # predicate literal drift rate
    instances_per_template: int = 1         # daily runs per recurring template

    def __post_init__(self) -> None:
        if self.n_recurring_templates < 1:
            raise ValueError("n_recurring_templates must be >= 1")
        if self.instances_per_template < 1:
            raise ValueError("instances_per_template must be >= 1")
        for name in ("recurring_fraction", "shared_fragment_templates",
                     "pipeline_fraction", "adhoc_dependency_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        lo, hi = self.pipeline_length
        if lo < 2 or hi < lo:
            raise ValueError("pipeline_length must satisfy 2 <= lo <= hi")

    @classmethod
    def for_scale(cls, jobs_per_day: int, **overrides) -> "ScopeWorkloadConfig":
        """Calibrated config sized for roughly ``jobs_per_day`` daily jobs.

        Keeps the paper's recurring/pipeline/dependency fractions but
        scales the template catalog and per-template instance count so a
        single generated day lands near the requested size.  Template
        diversity is capped (structural variety, not volume, is what
        costs memory downstream), and the remaining volume comes from
        extra daily instances per template — matching how real SCOPE
        clusters get to 100k+ jobs/day from a few thousand scripts.
        """
        if jobs_per_day < 1:
            raise ValueError("jobs_per_day must be >= 1")
        fraction = overrides.get("recurring_fraction", cls.recurring_fraction)
        recurring = max(1, int(round(jobs_per_day * fraction)))
        overrides.setdefault(
            "n_recurring_templates", max(30, min(2000, recurring // 32))
        )
        overrides.setdefault(
            "instances_per_template",
            max(1, round(recurring / overrides["n_recurring_templates"])),
        )
        return cls(**overrides)


@dataclass
class _Fragment:
    """A shared subplan: literals depend only on (fragment, day)."""

    fragment_id: int
    table: str
    column: str
    base_value: float

    def instantiate(self, day: int, drift: float) -> Expression:
        value = self.base_value * (1.0 + drift * day)
        return Filter(Scan(self.table), (Predicate(self.column, "<=", value),))


@dataclass
class _Template:
    """A recurring script: fixed structure, day-parameterized literals."""

    template_id: int
    fragment: _Fragment | None
    base_table: str            # scanned when there is no fragment
    join_table: str | None
    filter_column: str
    filter_base_value: float
    group_column: str | None
    submit_hour_offset: float  # within-day submit time
    pipeline_id: int | None = None
    upstream_template: int | None = None  # producer in the pipeline
    output_table: str | None = None       # derived table this job writes

    def instantiate(self, day: int, drift: float) -> tuple[Expression, dict]:
        value = self.filter_base_value * (1.0 + drift * day)
        if self.upstream_template is not None:
            # Consumers read their producer's derived output table,
            # enriching it with the shared fragment when they have one.
            core: Expression = Scan(f"out_t{self.upstream_template}")
            if self.fragment is not None:
                core = Join(
                    core, self.fragment.instantiate(day, drift), "key", "key"
                )
        elif self.fragment is not None:
            core = self.fragment.instantiate(day, drift)
        else:
            core = Scan(self.base_table)
        if self.join_table is not None:
            core = Join(core, Scan(self.join_table), "key", "key")
        core = Filter(core, (Predicate(self.filter_column, "<=", value),))
        if self.group_column is not None:
            core = Aggregate(core, (self.group_column,))
        params = {"filter_value": value}
        if self.fragment is not None:
            params["fragment_value"] = self.fragment.base_value * (
                1.0 + drift * day
            )
        return core, params


@dataclass
class _AdhocShape:
    """Day-independent signature scaffolding for one ad-hoc plan shape.

    Ad-hoc plans come in exactly four shapes (filter-scan, optionally
    joined to a second scan, capped by an aggregate or a project), so
    everything except the predicate literal is cacheable per
    ``(table, column, join_table, aggregate)``: the scan signatures,
    the template signatures (literals are masked, so they carry no
    per-job information), and the strict-payload prefixes the per-job
    digests are folded into.  The fused batch path then needs only
    2–3 SHA1 calls per ad-hoc job instead of a full signature walk.

    The payload pieces are kept as *bytes* and the per-node names as
    the raw first 8 digest bytes: a 16-hex-char signature name is a
    bijective encoding of those 8 bytes, so the interning pass can run
    ``np.unique`` over a uint64 view and hexlify only the surviving
    pool — hex strings exist per *unique* signature, not per job.
    """

    scan_raw: bytes          # raw 8-byte digest of Scan(table)
    jscan_raw: bytes | None  # Scan(join_table), when joined
    filt_pre: bytes          # strict Filter payload up to the literal
    filt_post: bytes         # strict Filter payload after the literal
    join_pre: bytes | None   # strict Join payload around the filter sig
    join_post: bytes | None
    root_pre: bytes          # strict root payload up to the child sig
    root_size: int           # node count of the full plan
    root_template: str       # template signature of the full plan
    skeleton: str            # the plan's skeleton text (literal masked)
    scan_node: Scan          # shared scan instances: plans differ only
    jscan_node: Scan | None  # in the predicate literal above the scans
    aggregate: bool
    root_cols: tuple[str, ...]  # Aggregate group_by / Project columns


def _stamp_adhoc_plan(shape: _AdhocShape, column: str, value: float) -> Expression:
    """Stamp one ad-hoc plan from its cached shape.

    Equivalent to building the tree with the dataclass constructors, but
    ~6x cheaper: frozen-dataclass ``__init__`` pays two
    ``object.__setattr__`` calls per field, while filling ``__dict__``
    directly (in field order, so pickles lay out identically) costs one
    dict store.  The scans carry no literal, so the shape's shared
    instances are reused across every plan of the same shape; equality
    and hashing stay structural either way.
    """
    pred = Predicate.__new__(Predicate)
    pd = pred.__dict__
    pd["column"] = column
    pd["op"] = "<="
    pd["value"] = value
    filt = Filter.__new__(Filter)
    fd = filt.__dict__
    fd["child"] = shape.scan_node
    fd["predicates"] = (pred,)
    top: Expression = filt
    if shape.jscan_node is not None:
        join = Join.__new__(Join)
        jd = join.__dict__
        jd["left"] = filt
        jd["right"] = shape.jscan_node
        jd["left_key"] = "key"
        jd["right_key"] = "key"
        top = join
    root = (Aggregate if shape.aggregate else Project).__new__(
        Aggregate if shape.aggregate else Project
    )
    rd = root.__dict__
    rd["child"] = top
    rd["group_by" if shape.aggregate else "columns"] = shape.root_cols
    return root


class ScopeWorkloadGenerator:
    """Builds templates once, then stamps out daily jobs."""

    #: Row-count bounds for derived (pipeline output) tables.  Real
    #: pipeline stages filter/aggregate, so outputs stay bounded instead
    #: of compounding down the chain.
    _DERIVED_MIN_ROWS = 1_000
    _DERIVED_MAX_ROWS = 20_000_000

    @classmethod
    def _derived_columns(cls, n_rows: int) -> tuple[ColumnStats, ...]:
        """Columns every derived table exposes, key distincts scaled to size."""
        return (
            ColumnStats("key", distinct=max(1_000, n_rows // 2)),
            ColumnStats("a0", distinct=200, low=0, high=1000, skew=0.5),
            ColumnStats("a1", distinct=50, low=0, high=100),
        )

    def __init__(
        self,
        catalog: Catalog | None = None,
        config: ScopeWorkloadConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or ScopeWorkloadConfig()
        self._rng = np.random.default_rng(rng)
        self.catalog = catalog or Catalog.synthetic(n_tables=8, rng=self._rng)
        self._base_tables = self.catalog.tables()
        self._fragments = self._build_fragments()
        self.templates = self._build_templates()
        self._register_derived_tables()
        self._templates_by_hour = sorted(
            self.templates, key=lambda t: t.submit_hour_offset
        )
        # Streaming state: the RNG position a fresh generator's first
        # ``generate()`` starts from, plus the position at the start of
        # every day already replayed — day-addressable random access.
        self._day_states: dict[int, dict] = {0: deepcopy(self._rng.bit_generator.state)}
        # Fused-batch caches, all derivable from the templates above and
        # rebuilt lazily after pickling (see __getstate__): checkpoints
        # must stay manifest-sized, not carry 100k+ cached id strings.
        self._rec_meta: list[tuple[_Template, list[str] | None]] | None = None
        self._rec_offsets: np.ndarray | None = None
        self._rec_id_suffixes: list[str] | None = None
        self._adhoc_id_suffixes: list[str] | None = None
        self._adhoc_shapes: dict[tuple, _AdhocShape] = {}
        self._filter_cands: dict[str, tuple[ColumnStats, ...]] = {}

    #: Bound on cached ad-hoc signature scaffolds (FIFO-evicted beyond
    #: it; re-deriving an evicted shape is bit-identical, so the cap is
    #: purely a memory bound for month-long runs).  Sized above the
    #: ~49k distinct shapes a single 1M-job day draws, so hot sets
    #: never thrash.
    _ADHOC_SHAPE_CAP = 65536

    #: cache attributes dropped from pickles and rebuilt on first use.
    _LAZY_CACHES = (
        "_rec_meta", "_rec_offsets", "_rec_id_suffixes",
        "_adhoc_id_suffixes", "_adhoc_shapes", "_filter_cands",
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._LAZY_CACHES:
            state[name] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._adhoc_shapes = {}
        self._filter_cands = {}

    # -- construction --------------------------------------------------------
    def _random_table_rng(self, rng: np.random.Generator) -> TableDef:
        # Only base tables: derived pipeline outputs are never scanned by
        # templates other than their pipeline consumer.
        return self._base_tables[int(rng.integers(0, len(self._base_tables)))]

    def _random_table(self) -> TableDef:
        return self._random_table_rng(self._rng)

    def _random_fact_table(self) -> TableDef:
        """One of the largest base tables (the shared-log-scan pattern).

        Shared fragments model the expensive common computation of real
        SCOPE workloads — scans/filters over massive shared logs — so
        they draw from the top quartile of tables by row count.
        """
        ranked = sorted(self._base_tables, key=lambda t: -t.n_rows)
        top = ranked[: max(1, len(ranked) // 4)]
        return top[int(self._rng.integers(0, len(top)))]

    def _random_dim_table(self) -> TableDef:
        """One of the smaller base tables (typical join partners)."""
        ranked = sorted(self._base_tables, key=lambda t: t.n_rows)
        bottom = ranked[: max(1, 3 * len(ranked) // 4)]
        return bottom[int(self._rng.integers(0, len(bottom)))]

    def _random_filter_column_rng(
        self, rng: np.random.Generator, table: TableDef
    ) -> ColumnStats:
        candidates = [c for c in table.columns if c.name != "key"]
        if not candidates:
            return table.columns[0]
        return candidates[int(rng.integers(0, len(candidates)))]

    def _random_filter_column(self, table: TableDef) -> ColumnStats:
        return self._random_filter_column_rng(self._rng, table)

    def _build_fragments(self) -> list[_Fragment]:
        fragments = []
        for i in range(self.config.n_shared_fragments):
            table = self._random_fact_table()
            column = self._random_filter_column(table)
            fragments.append(
                _Fragment(
                    fragment_id=i,
                    table=table.name,
                    column=column.name,
                    base_value=float(
                        self._rng.uniform(column.low + 1, column.high)
                    ),
                )
            )
        return fragments

    def _build_templates(self) -> list[_Template]:
        cfg = self.config
        templates: list[_Template] = []
        for tid in range(cfg.n_recurring_templates):
            use_fragment = (
                self._fragments
                and self._rng.random() < cfg.shared_fragment_templates
            )
            fragment = (
                self._fragments[int(self._rng.integers(0, len(self._fragments)))]
                if use_fragment
                else None
            )
            base_table = self._random_table()
            anchor = (
                self.catalog.get(fragment.table) if fragment else base_table
            )
            filter_col = self._random_filter_column(anchor)
            join_table = (
                self._random_dim_table().name
                if self._rng.random() < 0.6
                else None
            )
            group_col = filter_col.name if self._rng.random() < 0.5 else None
            templates.append(
                _Template(
                    template_id=tid,
                    fragment=fragment,
                    base_table=base_table.name,
                    join_table=join_table,
                    filter_column=filter_col.name,
                    filter_base_value=float(
                        self._rng.uniform(filter_col.low + 1, filter_col.high)
                    ),
                    group_column=group_col,
                    submit_hour_offset=float(self._rng.uniform(0, 20)),
                )
            )
        self._wire_pipelines(templates)
        return templates

    def _wire_pipelines(self, templates: list[_Template]) -> None:
        """Chain a ``pipeline_fraction`` share of templates into pipelines."""
        cfg = self.config
        n_in_pipelines = int(round(cfg.pipeline_fraction * len(templates)))
        order = self._rng.permutation(len(templates))[:n_in_pipelines]
        cursor = 0
        pipeline_id = 0
        lo, hi = cfg.pipeline_length
        while cursor < len(order):
            length = int(self._rng.integers(lo, hi + 1))
            chain = [templates[i] for i in order[cursor : cursor + length]]
            if len(chain) < 2:
                break
            for position, template in enumerate(chain):
                template.pipeline_id = pipeline_id
                template.output_table = f"out_t{template.template_id}"
                if position > 0:
                    producer = chain[position - 1]
                    template.upstream_template = producer.template_id
                    # Consumers run after their producer within the day and
                    # filter on a column the derived table actually has.
                    template.submit_hour_offset = min(
                        23.0, producer.submit_hour_offset + 1.0
                    )
                    template.filter_column = "a0"
                    template.group_column = (
                        "a1" if template.group_column else None
                    )
                    template.join_table = None
            cursor += length
            pipeline_id += 1

    def _register_derived_tables(self) -> None:
        """Register pipeline output tables with plausible statistics."""
        estimator = DefaultCardinalityEstimator(self.catalog)
        # Producers first (template order is not topological, so iterate
        # until all derived tables resolve).
        pending = [t for t in self.templates if t.output_table is not None]
        for _ in range(len(pending) + 1):
            still_pending = []
            for template in pending:
                upstream = template.upstream_template
                if (
                    upstream is not None
                    and f"out_t{upstream}" not in self.catalog
                ):
                    still_pending.append(template)
                    continue
                plan, _ = template.instantiate(day=0, drift=0.0)
                rows = int(
                    np.clip(
                        estimator.estimate(plan),
                        self._DERIVED_MIN_ROWS,
                        self._DERIVED_MAX_ROWS,
                    )
                )
                self.catalog.add(
                    TableDef(
                        name=template.output_table,
                        n_rows=rows,
                        columns=self._derived_columns(rows),
                        row_bytes=120,
                    )
                )
            pending = still_pending
            if not pending:
                break

    # -- generation ----------------------------------------------------------
    @property
    def recurring_per_day(self) -> int:
        return len(self.templates) * self.config.instances_per_template

    @property
    def adhoc_per_day(self) -> int:
        cfg = self.config
        return int(
            round(
                self.recurring_per_day * (1.0 - cfg.recurring_fraction)
                / max(cfg.recurring_fraction, 1e-9)
            )
        )

    def _recurring_job_id(self, day: int, template_id: int, instance: int) -> str:
        return f"d{day:03d}-" + self._id_suffix(template_id, instance)

    def _generate_day(self, day: int, rng: np.random.Generator) -> list[Job]:
        """One day's jobs, sorted by submit hour.

        All randomness comes from ``rng`` (only ad-hoc jobs draw), so the
        same RNG state always reproduces the same day.  Because every
        day's submit hours fall strictly inside ``[24*day, 24*(day+1))``
        and Python's sort is stable, concatenating per-day sorted lists
        is bit-identical to the old whole-trace global sort.
        """
        cfg = self.config
        instances = cfg.instances_per_template
        jobs: list[Job] = []
        template_job_ids: dict[int, list[str]] = {}
        for template in self._templates_by_hour:
            plan, params = template.instantiate(day, cfg.drift_per_day)
            upstream_ids = (
                template_job_ids.get(template.upstream_template)
                if template.upstream_template is not None
                else None
            )
            ids: list[str] = []
            for k in range(instances):
                job_id = self._recurring_job_id(day, template.template_id, k)
                depends = ()
                if upstream_ids is not None:
                    depends = (upstream_ids[min(k, len(upstream_ids) - 1)],)
                jobs.append(
                    Job(
                        job_id=job_id,
                        plan=plan,
                        submit_hour=day * HOURS_PER_DAY
                        + template.submit_hour_offset,
                        template_id=template.template_id,
                        pipeline_id=template.pipeline_id,
                        params=params,
                        depends_on=depends,
                    )
                )
                ids.append(job_id)
            template_job_ids[template.template_id] = ids
        producers = [
            (
                self.catalog.get(t.output_table),
                template_job_ids[t.template_id][0],
                t.submit_hour_offset,
            )
            for t in self.templates
            if t.output_table is not None and t.template_id in template_job_ids
        ]
        for k in range(self.adhoc_per_day):
            jobs.append(self._adhoc_job(rng, day, k, producers))
        jobs.sort(key=_BY_SUBMIT_HOUR)
        return jobs

    def generate(self, n_days: int = 7) -> Workload:
        """Stamp out ``n_days`` of jobs (recurring daily + ad-hoc filler)."""
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        jobs: list[Job] = []
        for day in range(n_days):
            jobs.extend(self._generate_day(day, self._rng))
        return Workload(jobs=jobs, catalog=self.catalog, n_days=n_days)

    # -- streaming -----------------------------------------------------------
    def day_jobs(self, day: int) -> list[Job]:
        """One day's jobs without materializing any other day.

        Replays the seeded stream to ``day`` if needed (caching the RNG
        state at each day boundary, so forward iteration is O(1) per
        day) and returns exactly the jobs a fresh generator's first
        ``generate()`` would place on that day.  Never consumes
        ``self._rng``: eager and streaming reads can interleave freely.
        The fleet consumes :meth:`day_batch`; this per-job path is the
        oracle it is pinned against (``JobBatch.from_jobs``).
        """
        if day < 0:
            raise ValueError("day must be >= 0")
        rng = self._replay_to(day)
        jobs = self._generate_day(day, rng)
        self._day_states.setdefault(day + 1, deepcopy(rng.bit_generator.state))
        return jobs

    def _replay_to(self, day: int) -> np.random.Generator:
        """An RNG positioned at the start of ``day``, caching boundaries.

        Intermediate days are advanced with :meth:`_skip_day` — the same
        draw sequence as full generation (see :meth:`_adhoc_draws`)
        without building a single ``Job`` — so random access to day *d*
        costs O(draws), not O(objects).
        """
        rng = np.random.default_rng()
        start = max(d for d in self._day_states if d <= day)
        rng.bit_generator.state = deepcopy(self._day_states[start])
        for replay in range(start, day):
            self._skip_day(replay, rng)
            self._day_states.setdefault(
                replay + 1, deepcopy(rng.bit_generator.state)
            )
        return rng

    def _skip_day(self, day: int, rng: np.random.Generator) -> None:
        """Advance ``rng`` past ``day`` without materializing its jobs.

        Recurring templates draw nothing at generation time, so a day's
        RNG consumption is exactly its ad-hoc draws.
        """
        producers = self._day_producers(day)
        for _ in range(self.adhoc_per_day):
            self._adhoc_draws(rng, day, producers)

    def _day_producers(self, day: int) -> list[tuple[TableDef, str, float]]:
        """The (output table, first job id, hour) producer list of a day.

        Identical contents and order to the list ``_generate_day``
        assembles from its freshly-stamped jobs — every template stamps
        at least one instance, so membership is simply "has an output
        table", and the first instance's id is a pure function of
        ``(day, template_id)``.
        """
        prefix = f"d{day:03d}-"
        return [
            (
                self.catalog.get(t.output_table),
                prefix + self._id_suffix(t.template_id, 0),
                t.submit_hour_offset,
            )
            for t in self.templates
            if t.output_table is not None
        ]

    def _id_suffix(self, template_id: int, instance: int) -> str:
        """Day-independent tail of a recurring job id."""
        if self.config.instances_per_template == 1:
            return f"t{template_id:03d}"
        return f"t{template_id:03d}-i{instance:03d}"

    def _filter_candidates(self, table: TableDef) -> tuple[ColumnStats, ...]:
        """Non-key columns of ``table`` (the ad-hoc filter candidates)."""
        cands = self._filter_cands.get(table.name)
        if cands is None:
            cands = tuple(c for c in table.columns if c.name != "key")
            self._filter_cands[table.name] = cands
        return cands

    def _adhoc_draws(
        self,
        rng: np.random.Generator,
        day: int,
        producers: list[tuple[TableDef, str, float]],
    ) -> tuple[str, str, float, str | None, bool, float, tuple[str, ...]]:
        """Every random decision one ad-hoc job makes, in draw order.

        This is the single source of truth for the ad-hoc RNG stream:
        the per-job streaming path (:meth:`_adhoc_job`), the fused
        batch path (:meth:`day_batch`), and the replay skip
        (:meth:`_skip_day`) all consume ``rng`` through here, so every
        path advances the generator through the *identical* sequence of
        calls — the invariant the bit-identity pins rest on.  Returns
        ``(table, column, value, join_table, aggregate, submit_hour,
        depends_on)``.

        ``uniform(lo, hi)`` draws are written as ``lo + (hi - lo) *
        random()`` — the exact arithmetic ``Generator.uniform`` performs
        on the same single draw, so the stream and the values are
        bit-identical while skipping the broadcasting machinery (this
        loop runs a million times a day).
        """
        random = rng.random
        integers = rng.integers
        base_tables = self._base_tables
        depends: tuple[str, ...] = ()
        submit_hour = day * HOURS_PER_DAY + 24.0 * random()
        if producers and random() < self.config.adhoc_dependency_fraction:
            table, producer_job, producer_hour = producers[
                int(integers(0, len(producers)))
            ]
            depends = (producer_job,)
            # A consumer cannot start before its producer ran.
            submit_hour = day * HOURS_PER_DAY + min(
                23.9, producer_hour + (0.5 + 3.5 * random())
            )
        else:
            table = base_tables[int(integers(0, len(base_tables)))]
        candidates = self._filter_candidates(table)
        if candidates:
            column = candidates[int(integers(0, len(candidates)))]
        else:
            column = table.columns[0]
        value = column.low + (column.high - column.low) * random()
        join_table = (
            base_tables[int(integers(0, len(base_tables)))].name
            if random() < 0.5
            else None
        )
        aggregate = random() < 0.5
        return (
            table.name, column.name, value, join_table, aggregate,
            submit_hour, depends,
        )

    def _adhoc_plan(
        self,
        table: str,
        column: str,
        value: float,
        join_table: str | None,
        aggregate: bool,
    ) -> Expression:
        """Build the ad-hoc plan an :meth:`_adhoc_draws` tuple describes."""
        shape = self._adhoc_shape(table, column, join_table, aggregate)
        return _stamp_adhoc_plan(shape, column, value)

    def _adhoc_job(
        self,
        rng: np.random.Generator,
        day: int,
        index: int,
        producers: list[tuple[str, str, float]],
    ) -> Job:
        """A one-off job with randomized structure and literals.

        With probability ``adhoc_dependency_fraction`` the job consumes a
        pipeline's derived output table (ad-hoc analysis over production
        data), giving it an inter-job dependency.
        """
        table, column, value, join_table, aggregate, submit_hour, depends = (
            self._adhoc_draws(rng, day, producers)
        )
        return Job(
            job_id=f"d{day:03d}-adhoc{index:03d}",
            plan=self._adhoc_plan(table, column, value, join_table, aggregate),
            submit_hour=submit_hour,
            depends_on=depends,
        )

    # -- fused batch generation ----------------------------------------------
    def _recurring_meta(self) -> list[tuple[_Template, list[str] | None]]:
        """Per template (by-hour order): the template plus dependency tails.

        A consumer instance depends on its producer's matching instance
        *iff* the producer was stamped earlier in by-hour order — the
        exact ``template_job_ids.get`` behaviour of ``_generate_day``
        (equal-hour ties resolve by template id, so a chain wired
        "backwards" at the 23.0 clamp yields no edge there either).
        """
        if self._rec_meta is None:
            instances = self.config.instances_per_template
            meta: list[tuple[_Template, list[str] | None]] = []
            stamped: set[int] = set()
            for template in self._templates_by_hour:
                upstream = template.upstream_template
                tails = (
                    [self._id_suffix(upstream, k) for k in range(instances)]
                    if upstream is not None and upstream in stamped
                    else None
                )
                meta.append((template, tails))
                stamped.add(template.template_id)
            self._rec_meta = meta
        return self._rec_meta

    def _recurring_columns(self) -> tuple[np.ndarray, list[str]]:
        """(submit-hour offsets, id tails), one per recurring instance."""
        if self._rec_offsets is None or self._rec_id_suffixes is None:
            instances = self.config.instances_per_template
            meta = self._recurring_meta()
            self._rec_offsets = np.repeat(
                np.asarray(
                    [t.submit_hour_offset for t, _tails in meta],
                    dtype=np.float64,
                ),
                instances,
            )
            self._rec_id_suffixes = [
                self._id_suffix(t.template_id, k)
                for t, _tails in meta
                for k in range(instances)
            ]
        return self._rec_offsets, self._rec_id_suffixes

    def _adhoc_tails(self) -> list[str]:
        if self._adhoc_id_suffixes is None:
            self._adhoc_id_suffixes = [
                f"adhoc{k:03d}" for k in range(self.adhoc_per_day)
            ]
        return self._adhoc_id_suffixes

    def _adhoc_shape(
        self, table: str, column: str, join_table: str | None, aggregate: bool
    ) -> _AdhocShape:
        """Cached signature scaffolding for one ad-hoc plan shape."""
        key = (table, column, join_table, aggregate)
        shape = self._adhoc_shapes.get(key)
        if shape is not None:
            return shape
        scan_sig = _digest(f"Scan:{table}()")
        filt_template = _digest(f"Filter:{column}<=?({scan_sig})")
        if join_table is not None:
            jscan_sig = _digest(f"Scan:{join_table}()")
            join_pre = "Join:key=key("
            join_post = f"|{jscan_sig})"
            top_template = _digest(
                f"{join_pre}{filt_template}{join_post}"
            )
            root_size = 5
        else:
            jscan_sig = join_pre = join_post = None
            top_template = filt_template
            root_size = 3
        root_desc = (
            f"Aggregate:{column}" if aggregate else f"Project:{column},key"
        )
        # The skeleton of the tree _stamp_adhoc_plan builds, written
        # directly (see repro.engine.skeleton for the encoding).
        skeleton = ["F", ["S", table], [[column, "<=", "f"]]]
        if join_table is not None:
            skeleton = ["J", skeleton, ["S", join_table], "key", "key"]
        skeleton = (
            ["A", skeleton, [column]]
            if aggregate
            else ["P", skeleton, [column, "key"]]
        )
        if len(self._adhoc_shapes) >= self._ADHOC_SHAPE_CAP:
            # FIFO-evict: shapes are pure functions of the key, so a
            # re-derived shape is identical — the cap only bounds
            # resident memory over long runs (the shape space is the
            # catalog's full table x column x join x aggregate product,
            # which at 100k-job scale never stops minting new combos).
            del self._adhoc_shapes[next(iter(self._adhoc_shapes))]
        shape = _AdhocShape(
            scan_raw=bytes.fromhex(scan_sig),
            jscan_raw=(
                bytes.fromhex(jscan_sig) if jscan_sig is not None else None
            ),
            filt_pre=f"Filter:{column}<=".encode(),
            filt_post=f"({scan_sig})".encode(),
            join_pre=join_pre.encode() if join_pre is not None else None,
            join_post=join_post.encode() if join_post is not None else None,
            root_pre=f"{root_desc}(".encode(),
            root_size=root_size,
            root_template=_digest(f"{root_desc}({top_template})"),
            skeleton=skeleton_text(skeleton),
            scan_node=Scan(table),
            jscan_node=Scan(join_table) if join_table is not None else None,
            aggregate=aggregate,
            root_cols=(column,) if aggregate else (column, "key"),
        )
        self._adhoc_shapes[key] = shape
        return shape

    def day_batch(self, day: int) -> "JobBatch":
        """One day, fused straight into :class:`JobBatch` columns.

        Bit-identical to ``JobBatch.from_jobs(self.day_jobs(day))`` —
        same columns, pools, interning order, and RNG advancement — but
        no per-job ``Job`` objects, no plan trees, no Python sort, and
        only 2–3 SHA1 calls per unique ad-hoc plan instead of a full
        signature pass: recurring instances share one per-template plan
        via columnar repeats, ad-hoc plans are a cached shape skeleton
        plus one literal, and the day never exists as a million-element
        list.  Interleaves freely with :meth:`day_jobs` (shared
        day-state cache).
        """
        if day < 0:
            raise ValueError("day must be >= 0")
        rng = self._replay_to(day)
        # One day is an allocation burst of acyclic objects (strings,
        # digests, small lists): pausing collection while it runs saves
        # the collector re-scanning young objects it can never free.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            batch = self._build_day_batch(day, rng)
        finally:
            if was_enabled:
                gc.enable()
        self._day_states.setdefault(day + 1, deepcopy(rng.bit_generator.state))
        return batch

    def _build_day_batch(self, day: int, rng: np.random.Generator) -> "JobBatch":
        from repro.core.peregrine.repository import JobBatch

        cfg = self.config
        instances = cfg.instances_per_template
        prefix = f"d{day:03d}-"
        meta = self._recurring_meta()
        n_templates = len(meta)
        n_rec = n_templates * instances
        n_adhoc = self.adhoc_per_day

        # Per-ref pools in draw order (refs 0..T-1 are the recurring
        # plans, T..T+A-1 the ad-hoc plans).  Literals and signature
        # digests go into flat draw-order streams with per-ref lengths;
        # vectorized gathers permute them to plan-code order below.
        ref_skels: list[str] = []
        ref_templates: list[str] = []
        ref_stricts: list[bytes] = []      # raw 8-byte strict digests
        ref_params: list[dict] = []        # recurring refs only
        lits_flat: list[float] = []
        ref_arity: list[int] = []
        names_flat: list[bytes] = []
        sizes_flat: list[int] = []
        ref_lens: list[int] = []
        pre_deps: dict[int, tuple[str, ...]] = {}
        for j, (template, dep_tails) in enumerate(meta):
            plan, params = template.instantiate(day, cfg.drift_per_day)
            strict_map, _template_map = enumerate_all_signatures(plan)
            sigs = signatures(plan)
            text, literals = plan_skeleton(plan)
            ref_skels.append(text)
            ref_templates.append(sigs.template)
            ref_stricts.append(bytes.fromhex(sigs.strict))
            lits_flat.extend(literals)
            ref_arity.append(len(literals))
            names_flat.extend(bytes.fromhex(s) for s in strict_map)
            sizes_flat.extend(node.size for node in strict_map.values())
            ref_lens.append(len(strict_map))
            ref_params.append(params)
            if dep_tails is not None:
                base = j * instances
                for k, tail in enumerate(dep_tails):
                    pre_deps[base + k] = (prefix + tail,)
        rec_offsets, rec_tails = self._recurring_columns()
        rec_hours = rec_offsets + day * HOURS_PER_DAY

        # Ad-hoc refs: the draws stay strictly sequential (the RNG
        # contract — see :meth:`_adhoc_draws`), everything downstream of
        # each draw runs on prebound locals.  The signature block mirrors
        # ``enumerate_all_signatures``'s post-order walk with setdefault
        # dedup — the joined scan re-reading the filtered base table is
        # the only duplicate a 4-node ad-hoc shape can produce.  Each
        # plan is its shape's skeleton plus one literal: no tree.
        producers = self._day_producers(day)
        adhoc_hours = np.empty(n_adhoc, dtype=np.float64)
        draws = self._adhoc_draws
        get_shape = self._adhoc_shape
        _sha1 = sha1
        _hex = hexlify
        skels_append = ref_skels.append
        templates_append = ref_templates.append
        stricts_append = ref_stricts.append
        lits_append = lits_flat.append
        names_extend = names_flat.extend
        sizes_extend = sizes_flat.extend
        lens_append = ref_lens.append
        for k in range(n_adhoc):
            table, column, value, join_table, aggregate, hour, depends = (
                draws(rng, day, producers)
            )
            adhoc_hours[k] = hour
            if depends:
                pre_deps[n_rec + k] = depends
            shape = get_shape(table, column, join_table, aggregate)
            filt_raw = _sha1(
                shape.filt_pre + repr(value).encode() + shape.filt_post
            ).digest()[:8]
            if shape.jscan_raw is not None:
                top_raw = _sha1(
                    shape.join_pre + _hex(filt_raw) + shape.join_post
                ).digest()[:8]
                root_raw = _sha1(
                    shape.root_pre + _hex(top_raw) + b")"
                ).digest()[:8]
                if join_table == table:
                    names_extend((shape.scan_raw, filt_raw, top_raw, root_raw))
                    sizes_extend((1, 2, 4, shape.root_size))
                    lens_append(4)
                else:
                    names_extend((
                        shape.scan_raw, filt_raw, shape.jscan_raw,
                        top_raw, root_raw,
                    ))
                    sizes_extend((1, 2, 1, 4, shape.root_size))
                    lens_append(5)
            else:
                root_raw = _sha1(
                    shape.root_pre + _hex(filt_raw) + b")"
                ).digest()[:8]
                names_extend((shape.scan_raw, filt_raw, root_raw))
                sizes_extend((1, 2, shape.root_size))
                lens_append(3)
            skels_append(shape.skeleton)
            templates_append(shape.root_template)
            stricts_append(root_raw)
            lits_append(value)
        ref_arity.extend([1] * n_adhoc)

        # Stable sort by submit hour == the legacy per-day Python sort.
        hours = (
            np.concatenate([rec_hours, adhoc_hours]) if n_adhoc else rec_hours
        )
        refs = np.concatenate(
            [
                np.repeat(np.arange(n_templates, dtype=np.int64), instances),
                np.arange(n_templates, n_templates + n_adhoc, dtype=np.int64),
            ]
        )
        order = np.argsort(hours, kind="stable")
        sorted_refs = refs[order]

        # Plan codes by first appearance in sorted order — the exact
        # ``plan_index`` numbering of ``JobBatch.from_jobs``.
        uniq, first_idx, inverse = np.unique(
            sorted_refs, return_index=True, return_inverse=True
        )
        code_of_uniq = np.empty(len(uniq), dtype=np.uint32)
        appearance = np.argsort(first_idx, kind="stable")
        code_of_uniq[appearance] = np.arange(len(uniq), dtype=np.uint32)
        plan_codes = code_of_uniq[inverse].astype(np.uint32, copy=False)
        ref_order_arr = uniq[appearance]
        ref_order = ref_order_arr.tolist()

        all_tails = rec_tails + self._adhoc_tails()
        job_ids = np.asarray(
            [prefix + all_tails[i] for i in order.tolist()], dtype="S"
        )

        # Skeletons interned in plan-code order (the first plan of a
        # skeleton names its template); one params entry per plan
        # (``from_jobs`` keys params on the plan code, so codes and
        # param codes agree).
        skel_index: dict[str, int] = {}
        skeletons: list[str] = []
        skel_templates: list[str] = []
        skel_arity: list[int] = []
        plan_skels = np.empty(len(ref_order), dtype=np.uint32)
        for i, r in enumerate(ref_order):
            text = ref_skels[r]
            code = skel_index.get(text)
            if code is None:
                code = skel_index[text] = len(skeletons)
                skeletons.append(text)
                skel_templates.append(ref_templates[r])
                skel_arity.append(ref_arity[r])
            plan_skels[i] = code
        param_counts = np.zeros(len(ref_order), dtype=np.uint32)
        param_names: dict[str, int] = {}
        param_keys: list[int] = []
        param_values: list[float] = []
        for i in np.flatnonzero(ref_order_arr < n_templates).tolist():
            params = ref_params[ref_order[i]]
            param_counts[i] = len(params)
            for name, value in params.items():
                param_keys.append(param_names.setdefault(name, len(param_names)))
                param_values.append(value)

        # Signature interning in first-sighting order across plans: one
        # gather permutes the draw-order digest stream to plan-code
        # order, then ``np.unique`` over the raw 8-byte digests (a
        # uint64 view, bijective with the 16-hex-char names) plus an
        # appearance-rank remap replaces a million dict probes; only
        # the surviving pool is hexlified, wholesale.
        flat_draw = np.frombuffer(b"".join(names_flat), dtype=np.uint64)
        sizes_draw = np.asarray(sizes_flat, dtype=np.uint32)
        lens_sorted, gather = _csr_gather(ref_lens, ref_order_arr)
        uniq_names, name_first, name_inverse = np.unique(
            flat_draw[gather], return_index=True, return_inverse=True
        )
        name_rank = np.argsort(name_first, kind="stable")
        sig_code_of = np.empty(len(uniq_names), dtype=np.uint32)
        sig_code_of[name_rank] = np.arange(len(uniq_names), dtype=np.uint32)
        _arity_sorted, lit_gather = _csr_gather(ref_arity, ref_order_arr)

        inv = np.empty(len(order), dtype=np.int64)
        inv[order] = np.arange(len(order))
        dep_pre = list(pre_deps)
        dep_order = np.argsort(inv[dep_pre], kind="stable").tolist()
        dep_lists = [pre_deps[dep_pre[i]] for i in dep_order]
        return JobBatch(
            day=day,
            job_ids=job_ids,
            submit_hours=hours[order],
            plan_codes=plan_codes,
            param_codes=plan_codes.copy(),
            skeletons=skeletons,
            skel_templates=skel_templates,
            skel_arity=skel_arity,
            plan_skels=plan_skels,
            plan_stricts=_hex_digests(b"".join([ref_stricts[r] for r in ref_order])),
            sig_counts=lens_sorted,
            literals=np.asarray(lits_flat, dtype=np.float64)[lit_gather],
            sig_codes=sig_code_of[name_inverse],
            sig_names=_hex_digests(uniq_names[name_rank].tobytes()),
            sig_sizes=sizes_draw[gather[name_first[name_rank]]],
            param_names=list(param_names),
            param_counts=param_counts,
            param_keys=param_keys,
            param_values=param_values,
            dep_rows=np.sort(inv[dep_pre]),
            dep_counts=[len(deps) for deps in dep_lists],
            dep_ids=[dep for deps in dep_lists for dep in deps],
        )


def _csr_gather(lens: list[int], order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder CSR segments: ``(lengths in order, flat gather index)``.

    Segment ``i`` of the result is segment ``order[i]`` of a flat stream
    laid out with per-segment ``lens``.
    """
    lens_arr = np.asarray(lens, dtype=np.int64)
    starts = np.cumsum(lens_arr) - lens_arr
    lens_sorted = lens_arr[order]
    total = int(lens_sorted.sum())
    seg_base = np.repeat(np.cumsum(lens_sorted) - lens_sorted, lens_sorted)
    gather = (
        np.repeat(starts[order], lens_sorted)
        + np.arange(total, dtype=np.int64)
        - seg_base
    )
    return lens_sorted.astype(np.uint32), gather


def _hex_digests(raw: bytes) -> np.ndarray:
    """Concatenated raw 8-byte digests as an ``S16`` array of hex names."""
    return np.frombuffer(hexlify(raw), dtype="S16")
