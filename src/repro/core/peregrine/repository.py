"""Engine-agnostic workload representation, stored columnar.

The repository ingests jobs from any engine (here: the SCOPE-like
generator) and flattens them into a representation that every learned
component shares: template signatures for grouping, strict signatures
for reuse detection, parameter vectors for micromodel features, and
dependency edges for pipeline analysis.

Storage is a :class:`JobTable` — one :class:`DayChunk` per day behind
an LRU chunk cache that spills cold days to disk under a configurable
memory budget.  A day is flat numpy arrays and nothing else (see
:data:`COLUMNS`): each unique plan is a skeleton code plus its literal
values (:mod:`repro.engine.skeleton`), signatures, parameters and
dependencies are CSR columns over small per-day pools.  A 100k-job day
is ~10 MiB of arrays, and :class:`Expression` trees and
:class:`JobRecord` instances are built on demand, so the read API
(``records``, ``job``, ``by_day``, ``instances_of``) is unchanged for
existing callers.

Aggregate statistics (template recurrence counters, per-day sharing
summaries, dependency involvement) are folded incrementally at ingest
or cached per closed day, so :func:`repro.core.peregrine.analysis.
analyze` never needs every record in memory at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

from repro.engine import Expression
from repro.engine.signatures import enumerate_all_signatures, signatures
from repro.engine.skeleton import build_plan, plan_skeleton
from repro.workloads.scope import Job, Workload

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _hash_ids(ids) -> np.ndarray:
    """Vectorized FNV-1a of job-id strings, as uint64.

    Stable across processes (unlike ``hash()``), and ~100x faster than
    per-string hashlib calls: the ids become one fixed-width byte
    matrix and the fold runs one numpy op per character column.  Hits
    are always verified against the actual strings, so a collision can
    cost a chunk load but never correctness.
    """
    if not len(ids):
        return np.empty(0, dtype=np.uint64)
    arr = np.asarray(ids, dtype="S")
    view = np.ascontiguousarray(arr).view(np.uint8)
    view = view.reshape(len(arr), arr.dtype.itemsize)
    h = np.full(len(arr), _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in range(view.shape[1]):
            c = view[:, col].astype(np.uint64)
            # Null padding is a no-op so hashes are width-independent.
            h = np.where(c == 0, h, (h ^ c) * _FNV_PRIME)
    return h


@dataclass
class JobRecord:
    """One ingested job in the engine-agnostic representation."""

    job_id: str
    submit_hour: float
    plan: Expression
    template: str                     # template signature of the full plan
    strict: str                       # strict signature of the full plan
    subexpression_templates: dict[str, Expression]
    subexpression_strict: dict[str, Expression]
    params: dict[str, float]
    depends_on: tuple[str, ...]

    @property
    def day(self) -> int:
        return int(self.submit_hour // 24)


# ---------------------------------------------------------------------------
# the column schema
# ---------------------------------------------------------------------------

#: Every column of a day, with its dtype (``"S"``: fixed-width ASCII,
#: as wide as the longest value).  Variable-length groups (literals,
#: signature codes, parameters, dependency ids) are CSR with per-owner
#: *counts*, so appending one day's batch to another is concatenation
#: plus code remaps.
COLUMNS: dict[str, object] = {
    # one per job
    "job_ids": "S",
    "submit_hours": np.float64,
    "plan_codes": np.uint32,         # into the plan columns
    "param_codes": np.uint32,        # into the parameter entries
    # skeleton table: one per distinct literal-masked plan
    "skeletons": "S",                # JSON skeleton text
    "skel_templates": "S",           # template signature of the skeleton
    "skel_arity": np.uint16,         # literals per plan of this skeleton
    # one per unique plan
    "plan_skels": np.uint32,
    "plan_stricts": "S",             # strict signature of the full plan
    "sig_counts": np.uint32,         # strict subexpressions per plan
    # flat, plan-major
    "literals": np.float64,          # skel_arity[plan_skels] per plan
    "sig_codes": np.uint32,          # sig_counts per plan, walk order
    # strict-signature pool, first-sighting order across plans
    "sig_names": "S",
    "sig_sizes": np.uint32,          # node count of the subexpression
    # parameter entries (dicts) over a parameter-name pool
    "param_names": "S",
    "param_counts": np.uint32,       # items per entry
    "param_keys": np.uint32,         # into param_names
    "param_values": np.float64,
    # dependency rows: only jobs with a non-empty ``depends_on``
    "dep_rows": np.uint32,           # ascending
    "dep_counts": np.uint32,
    "dep_ids": "S",
}

#: Interned pools: index kind -> (key column, columns carried along).
_POOLS = {
    "skel": ("skeletons", ("skel_templates", "skel_arity")),
    "sig": ("sig_names", ("sig_sizes",)),
    "param_name": ("param_names", ()),
}


def _as_column(values, dtype) -> np.ndarray:
    if isinstance(values, np.ndarray) and (
        values.dtype.kind == "S" if dtype == "S" else values.dtype == dtype
    ):
        return values
    return np.asarray(values, dtype=dtype)


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class _DayColumns:
    """Reads shared by :class:`JobBatch` and :class:`DayChunk`.

    Subclasses provide ``col(name)`` (a :data:`COLUMNS` array) and a
    ``_derived`` dict for offsets computed from the count columns.
    """

    __slots__ = ()

    def col(self, name: str) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _csr(self, name: str) -> np.ndarray:
        offsets = self._derived.get(name)
        if offsets is None:
            if name == "literals":
                arity = self.col("skel_arity").astype(np.int64)
                counts = arity[self.col("plan_skels")]
            else:
                counts = self.col(name)
            offsets = _offsets(counts)
            self._derived[name] = offsets
        return offsets

    def job_id(self, row: int) -> str:
        return self.col("job_ids")[row].decode()

    def job_id_list(self) -> list[str]:
        return [b.decode() for b in self.col("job_ids").tolist()]

    def plan(self, code: int) -> Expression:
        """Build plan ``code``'s tree from its skeleton and literals."""
        skel = int(self.col("plan_skels")[code])
        offsets = self._csr("literals")
        literals = self.col("literals")[offsets[code]:offsets[code + 1]]
        return build_plan(
            self.col("skeletons")[skel].decode(), literals.tolist()
        )

    def template(self, code: int) -> str:
        skel = int(self.col("plan_skels")[code])
        return self.col("skel_templates")[skel].decode()

    def strict(self, code: int) -> str:
        return self.col("plan_stricts")[code].decode()

    def params(self, code: int) -> dict[str, float]:
        offsets = self._csr("param_counts")
        lo, hi = offsets[code], offsets[code + 1]
        names = self.col("param_names")[self.col("param_keys")[lo:hi]]
        return dict(
            zip(
                (n.decode() for n in names.tolist()),
                self.col("param_values")[lo:hi].tolist(),
            )
        )

    def deps_by_row(self) -> dict[int, tuple[str, ...]]:
        """``{row: depends_on}`` for every row with dependencies."""
        offsets = self._csr("dep_counts")
        ids = [b.decode() for b in self.col("dep_ids").tolist()]
        return {
            row: tuple(ids[offsets[i]:offsets[i + 1]])
            for i, row in enumerate(self.col("dep_rows").tolist())
        }

    def depends_on(self, row: int) -> tuple[str, ...]:
        rows = self.col("dep_rows")
        at = int(np.searchsorted(rows, row))
        if at == len(rows) or rows[at] != row:
            return ()
        offsets = self._csr("dep_counts")
        ids = self.col("dep_ids")[offsets[at]:offsets[at + 1]]
        return tuple(b.decode() for b in ids.tolist())


# ---------------------------------------------------------------------------
# columnar batches
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class JobBatch(_DayColumns):
    """One day's jobs as :data:`COLUMNS` arrays, ready for bulk ingest.

    The expensive per-*plan* work (signature enumeration, skeleton
    encoding) happens once, at construction;
    :meth:`WorkloadRepository.ingest_batch` then appends pure columns.
    Recurring instances share one plan code, and every plan of one
    script shares one skeleton.  The batch pickles as flat arrays, so
    shipping a 100k-job day between processes costs milliseconds.

    :meth:`plan` builds each plan code's tree once and caches it on the
    batch (never pickled): every reader of the day shares one object
    per plan, the way recurring instances shared one plan object when
    batches held trees.
    """

    day: int
    job_ids: np.ndarray
    submit_hours: np.ndarray
    plan_codes: np.ndarray
    param_codes: np.ndarray
    skeletons: np.ndarray
    skel_templates: np.ndarray
    skel_arity: np.ndarray
    plan_skels: np.ndarray
    plan_stricts: np.ndarray
    sig_counts: np.ndarray
    literals: np.ndarray
    sig_codes: np.ndarray
    sig_names: np.ndarray
    sig_sizes: np.ndarray
    param_names: np.ndarray
    param_counts: np.ndarray
    param_keys: np.ndarray
    param_values: np.ndarray
    dep_rows: np.ndarray
    dep_counts: np.ndarray
    dep_ids: np.ndarray
    _derived: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _plans: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name, dtype in COLUMNS.items():
            setattr(self, name, _as_column(getattr(self, name), dtype))

    def __len__(self) -> int:
        return len(self.job_ids)

    def __getstate__(self) -> dict:
        state = {"day": self.day}
        state.update(self.columns())
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = {}
        self._plans = {}

    def col(self, name: str) -> np.ndarray:
        return _as_column(getattr(self, name), COLUMNS[name])

    def columns(self) -> dict[str, np.ndarray]:
        return {name: self.col(name) for name in COLUMNS}

    @property
    def n_plans(self) -> int:
        return len(self.plan_skels)

    def plan(self, code: int) -> Expression:
        """Plan ``code``'s tree, built on first use and then shared."""
        plan = self._plans.get(code)
        if plan is None:
            plan = super().plan(code)
            self._plans[code] = plan
        return plan

    @classmethod
    def from_jobs(cls, jobs: list[Job], day: int | None = None) -> "JobBatch":
        """Columnarize ``jobs`` (all from one day, in ingestion order).

        The reference encoder for arbitrary plans: plan codes by first
        appearance (recurring instances sharing a plan object share a
        code), skeletons, signatures and parameter names interned in
        first-sighting order.  The fused generator path
        (:meth:`~repro.workloads.scope.ScopeWorkloadGenerator.day_batch`)
        is pinned bit-identical to it.
        """
        if not jobs:
            raise ValueError("cannot build an empty JobBatch")
        batch_day = jobs[0].day if day is None else day
        n = len(jobs)
        out: dict[str, list] = {name: [] for name in COLUMNS}
        hours = np.empty(n, dtype=np.float64)
        plan_codes = np.empty(n, dtype=np.uint32)
        param_codes = np.empty(n, dtype=np.uint32)
        plan_index: dict[int, int] = {}
        skel_index: dict[str, int] = {}
        sig_index: dict[str, int] = {}
        name_index: dict[str, int] = {}
        param_index: dict[tuple, int] = {}
        for row, job in enumerate(jobs):
            if job.day != batch_day:
                raise ValueError(
                    f"job {job.job_id!r} is on day {job.day}, batch is day"
                    f" {batch_day}: batches are per-day"
                )
            code = plan_index.get(id(job.plan))
            if code is None:
                code = len(plan_index)
                plan_index[id(job.plan)] = code
                strict_map, _template_map = enumerate_all_signatures(job.plan)
                sigs = signatures(job.plan)
                text, literals = plan_skeleton(job.plan)
                skel = skel_index.get(text)
                if skel is None:
                    skel = skel_index[text] = len(skel_index)
                    out["skeletons"].append(text)
                    out["skel_templates"].append(sigs.template)
                    out["skel_arity"].append(len(literals))
                out["plan_skels"].append(skel)
                out["plan_stricts"].append(sigs.strict)
                out["sig_counts"].append(len(strict_map))
                out["literals"].extend(literals)
                for name, node in strict_map.items():
                    sig_code = sig_index.get(name)
                    if sig_code is None:
                        sig_code = sig_index[name] = len(sig_index)
                        out["sig_names"].append(name)
                        out["sig_sizes"].append(node.size)
                    out["sig_codes"].append(sig_code)
            plan_codes[row] = code
            pkey = (code,) + tuple(job.params.items())
            pcode = param_index.get(pkey)
            if pcode is None:
                pcode = param_index[pkey] = len(param_index)
                out["param_counts"].append(len(job.params))
                for name, value in job.params.items():
                    key = name_index.get(name)
                    if key is None:
                        key = name_index[name] = len(name_index)
                        out["param_names"].append(name)
                    out["param_keys"].append(key)
                    out["param_values"].append(value)
            param_codes[row] = pcode
            out["job_ids"].append(job.job_id)
            hours[row] = job.submit_hour
            if job.depends_on:
                out["dep_rows"].append(row)
                out["dep_counts"].append(len(job.depends_on))
                out["dep_ids"].extend(job.depends_on)
        out.update(
            submit_hours=hours, plan_codes=plan_codes, param_codes=param_codes
        )
        return cls(day=batch_day, **out)


# ---------------------------------------------------------------------------
# day chunks
# ---------------------------------------------------------------------------


class _Column:
    """An appendable numpy column: array segments + a scalar tail."""

    __slots__ = ("dtype", "parts", "pending", "_cache", "_n", "_width")

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self.parts: list[np.ndarray] = []
        self.pending: list = []
        self._cache: np.ndarray | None = None
        self._n = 0
        # Byte width per value; "S" columns widen to their longest value.
        self._width = self.dtype.itemsize

    @property
    def flexible(self) -> bool:
        return self.dtype.kind == "S"

    def __len__(self) -> int:
        return self._n

    def _seal(self) -> None:
        if self.pending:
            self.parts.append(np.asarray(self.pending, dtype=self.dtype))
            self.pending = []

    def append(self, value) -> None:
        self.pending.append(value)
        if self.flexible:
            self._width = max(self._width, len(value))
        self._cache = None
        self._n += 1

    def extend(self, arr) -> None:
        arr = _as_column(arr, "S" if self.flexible else self.dtype)
        if not len(arr):
            return
        self._seal()
        self.parts.append(arr)
        if self.flexible:
            self._width = max(self._width, arr.dtype.itemsize)
        self._cache = None
        self._n += len(arr)

    def array(self) -> np.ndarray:
        if self._cache is None:
            self._seal()
            if not self.parts:
                self._cache = np.empty(0, dtype=self.dtype)
            elif len(self.parts) == 1:
                self._cache = self.parts[0]
            else:
                self._cache = np.concatenate(self.parts)
                self.parts = [self._cache]
        return self._cache

    def nbytes(self) -> int:
        """``array().nbytes``, without materializing the array."""
        return self._n * self._width


class DayChunk(_DayColumns):
    """One day's job table: the :data:`COLUMNS` arrays, appendable.

    Everything a day needs travels together as flat arrays, so a chunk
    spills to disk and reloads as one ``.npz`` file (no pickled Python
    objects) and its resident size is exactly its array bytes.
    Interning indexes and CSR offsets are derived, rebuilt on demand,
    and never saved.
    """

    __slots__ = ("day", "cols", "dirty", "_derived", "_index")

    def __init__(self, day: int) -> None:
        self.day = day
        self.cols = {name: _Column(dtype) for name, dtype in COLUMNS.items()}
        self.dirty = True
        self._derived: dict = {}
        self._index: dict[str, dict] = {}

    @classmethod
    def from_columns(cls, day: int, columns: dict[str, np.ndarray]) -> "DayChunk":
        chunk = cls(day)
        for name in COLUMNS:
            chunk.cols[name].extend(columns[name])
        chunk.dirty = False
        return chunk

    @property
    def n(self) -> int:
        return len(self.cols["job_ids"])

    def col(self, name: str) -> np.ndarray:
        return self.cols[name].array()

    def columns(self) -> dict[str, np.ndarray]:
        return {name: column.array() for name, column in self.cols.items()}

    # -- interning -----------------------------------------------------------
    def _lookup(self, kind: str) -> dict:
        index = self._index.get(kind)
        if index is None:
            if kind == "param":
                index = {}
                for code in range(len(self.cols["param_counts"])):
                    index.setdefault(
                        tuple(self.params(code).items()), code
                    )
            else:
                keys = self.col(_POOLS[kind][0]).tolist()
                index = {key: i for i, key in enumerate(keys)}
            self._index[kind] = index
        return index

    def _intern(self, kind: str, key: bytes, *carried) -> int:
        index = self._lookup(kind)
        code = index.get(key)
        if code is None:
            key_col, carried_cols = _POOLS[kind]
            code = index[key] = len(self.cols[key_col])
            self.cols[key_col].append(key)
            for name, value in zip(carried_cols, carried):
                self.cols[name].append(value)
        return code

    def _intern_pool(self, kind: str, batch: JobBatch) -> np.ndarray:
        """Remap a batch pool's codes onto this chunk's pool."""
        key_col, carried_cols = _POOLS[kind]
        keys = batch.col(key_col)
        index = self._lookup(kind)
        remap = np.empty(len(keys), dtype=np.uint32)
        new: list[int] = []
        next_code = len(self.cols[key_col])
        for i, key in enumerate(keys.tolist()):
            code = index.get(key)
            if code is None:
                code = index[key] = next_code
                next_code += 1
                new.append(i)
            remap[i] = code
        if new:
            for name in (key_col, *carried_cols):
                self.cols[name].extend(batch.col(name)[new])
        return remap

    def _invalidate(self) -> None:
        self.dirty = True
        self._derived = {}

    def add_plan(
        self,
        plan: Expression,
        template: str,
        strict: str,
        sig_names: list[str],
        sig_sizes: list[int],
    ) -> int:
        text, literals = plan_skeleton(plan)
        cols = self.cols
        code = len(cols["plan_skels"])
        cols["plan_skels"].append(
            self._intern("skel", text.encode(), template, len(literals))
        )
        cols["plan_stricts"].append(strict)
        cols["sig_counts"].append(len(sig_names))
        for value in literals:
            cols["literals"].append(value)
        for name, size in zip(sig_names, sig_sizes):
            cols["sig_codes"].append(self._intern("sig", name.encode(), size))
        self._invalidate()
        return code

    def add_params(self, plan_code: int, params: dict) -> int:
        # Parameter entries are interned by contents: recurring
        # instances share one entry, ad-hoc jobs get their own.
        index = self._lookup("param")
        key = tuple(params.items())
        code = index.get(key)
        if code is None:
            cols = self.cols
            code = index[key] = len(cols["param_counts"])
            cols["param_counts"].append(len(params))
            for name, value in params.items():
                cols["param_keys"].append(self._intern("param_name", name.encode()))
                cols["param_values"].append(value)
            self._invalidate()
        return code

    # -- appends -------------------------------------------------------------
    def append_row(
        self,
        job_id: str,
        submit_hour: float,
        plan_code: int,
        param_code: int,
        depends_on: tuple[str, ...],
    ) -> int:
        cols = self.cols
        row = self.n
        cols["job_ids"].append(job_id)
        cols["submit_hours"].append(submit_hour)
        cols["plan_codes"].append(plan_code)
        cols["param_codes"].append(param_code)
        if depends_on:
            cols["dep_rows"].append(row)
            cols["dep_counts"].append(len(depends_on))
            for dep in depends_on:
                cols["dep_ids"].append(dep)
        self._invalidate()
        return row

    def append_batch(self, batch: JobBatch) -> None:
        cols = self.cols
        if not len(cols["plan_skels"]):
            # Fresh chunk (the one-batch-per-day hot path): adopt the
            # batch's arrays wholesale — no per-row or per-plan work.
            for name in COLUMNS:
                cols[name].extend(batch.col(name))
            self._index = {}
            self._invalidate()
            return
        # Reopened day: intern the batch's pools into this chunk's and
        # shift its codes past the rows, plans and entries held here.
        skel_remap = self._intern_pool("skel", batch)
        sig_remap = self._intern_pool("sig", batch)
        name_remap = self._intern_pool("param_name", batch)
        base_row = np.uint32(self.n)
        cols["plan_codes"].extend(
            batch.plan_codes + np.uint32(len(cols["plan_skels"]))
        )
        cols["param_codes"].extend(
            batch.param_codes + np.uint32(len(cols["param_counts"]))
        )
        for name in (
            "job_ids", "submit_hours", "plan_stricts", "sig_counts",
            "literals", "param_counts", "param_values", "dep_counts",
            "dep_ids",
        ):
            cols[name].extend(batch.col(name))
        cols["plan_skels"].extend(skel_remap[batch.plan_skels])
        cols["sig_codes"].extend(sig_remap[batch.sig_codes])
        cols["param_keys"].extend(name_remap[batch.param_keys])
        cols["dep_rows"].extend(batch.dep_rows + base_row)
        self._index.pop("param", None)
        self._invalidate()

    # -- reads ---------------------------------------------------------------
    def record(self, row: int, plans: dict | None = None) -> JobRecord:
        """Materialize one row; ``plans`` shares trees across rows."""
        code = int(self.col("plan_codes")[row])
        plan = plans.get(code) if plans is not None else None
        if plan is None:
            plan = self.plan(code)
            if plans is not None:
                plans[code] = plan
        strict_map, template_map = enumerate_all_signatures(plan)
        return JobRecord(
            job_id=self.job_id(row),
            submit_hour=float(self.col("submit_hours")[row]),
            plan=plan,
            template=self.template(code),
            strict=self.strict(code),
            subexpression_templates=template_map,
            subexpression_strict=strict_map,
            params=self.params(int(self.col("param_codes")[row])),
            depends_on=self.depends_on(row),
        )

    def iter_records(self):
        plans: dict[int, Expression] = {}
        for row in range(self.n):
            yield self.record(row, plans)

    def records(self) -> list[JobRecord]:
        return list(self.iter_records())

    def filtered_sig_codes(self, min_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Plan-major strict-sig codes with node size >= ``min_size``.

        Returns ``(codes, per-plan counts)``, the CSR of the surviving
        subexpressions in walk order.
        """
        key = ("filtered", min_size)
        cached = self._derived.get(key)
        if cached is None:
            codes = self.col("sig_codes")
            counts = self.col("sig_counts")
            keep = self.col("sig_sizes")[codes] >= min_size
            owner = np.repeat(np.arange(len(counts)), counts)
            cached = (
                codes[keep],
                np.bincount(owner[keep], minlength=len(counts)),
            )
            self._derived[key] = cached
        return cached

    def sig_rows(self, min_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(job_row, sig_code)`` streams, job-major, walk order.

        Row order is exactly what a serial scan of per-record
        ``subexpression_strict`` dicts produces — the invariant the
        byte-identical sharing statistics rest on.
        """
        codes, lens = self.filtered_sig_codes(min_size)
        plan_codes = self.col("plan_codes")
        if not len(plan_codes):
            empty = np.empty(0, dtype=np.uint32)
            return empty, empty
        offs = np.cumsum(lens) - lens
        counts = lens[plan_codes]
        total = int(counts.sum())
        flat_job = np.repeat(
            np.arange(len(plan_codes), dtype=np.uint32), counts
        )
        starts = np.repeat(offs[plan_codes], counts)
        base = np.repeat(np.cumsum(counts) - counts, counts)
        flat_sig = codes[starts + (np.arange(total) - base)]
        return flat_job, flat_sig.astype(np.uint32, copy=False)

    # -- bookkeeping ---------------------------------------------------------
    def nbytes(self) -> int:
        """Resident size driving the LRU budget: the column bytes."""
        return sum(column.nbytes() for column in self.cols.values())

    def __getstate__(self) -> dict:
        state = {"day": self.day}
        state.update(self.columns())
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["day"])
        for name in COLUMNS:
            self.cols[name].extend(state[name])
        self.dirty = False



# ---------------------------------------------------------------------------
# the chunked, spilling job table
# ---------------------------------------------------------------------------


class JobTable:
    """Day chunks behind an LRU cache with disk spill.

    ``memory_budget_bytes`` caps the estimated resident size of hot
    chunks; when exceeded (and ``spill_dir`` is set) the least recently
    used cold day is written to ``spill_dir`` as one ``.npz`` of its
    column arrays and dropped.  Without a spill directory the table is
    fully in-memory and the budget is inert — exactly the old
    repository behaviour.

    Per-day uint64 id-hash indexes (12 bytes/job) stay resident even
    for spilled days, so duplicate detection and ``job()`` lookups
    never page a chunk back in unless they actually hit.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        self.memory_budget_bytes = memory_budget_bytes
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.chunks: dict[int, DayChunk] = {}     # hot, LRU order
        self.chunk_files: dict[int, str] = {}     # spilled day -> file name
        self.day_counts: dict[int, int] = {}      # every day ever seen
        self.day_order: list[int] = []            # first-appearance order
        self.closed_index: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.open_day: int | None = None
        self._open_map: dict[str, int] = {}
        self._open_segments: list[tuple[np.ndarray, np.ndarray]] = []
        self.reopened = False
        self.n_jobs = 0
        self.spills = 0
        self.loads = 0
        # Wall seconds spent writing and reading chunk files
        # (process-local timings: never pickled).
        self.spill_s = 0.0
        self.load_s = 0.0
        # Derived cache: one (hashes, days, rows) triple merge-sorted
        # across every closed day, so membership probes cost a single
        # searchsorted instead of one per historical day.  Lazily built,
        # extended in place at close_day, dropped on reopen; never
        # pickled (rebuilt on demand after a restore).
        self._global_index: (
            tuple[np.ndarray, np.ndarray, np.ndarray] | None
        ) = None

    # -- chunk access --------------------------------------------------------
    def _touch(self, day: int) -> None:
        chunk = self.chunks.pop(day)
        self.chunks[day] = chunk

    def chunk(self, day: int) -> DayChunk:
        chunk = self.chunks.get(day)
        if chunk is not None:
            self._touch(day)
            return chunk
        name = self.chunk_files.get(day)
        if name is None:
            raise KeyError(day)
        started = time.perf_counter()
        # Plain arrays only: a spill file never unpickles Python objects.
        with np.load(self.spill_dir / name, allow_pickle=False) as data:
            chunk = DayChunk.from_columns(
                day, {key: data[key] for key in data.files}
            )
        self.load_s += time.perf_counter() - started
        self.loads += 1
        self.chunks[day] = chunk
        self._enforce_budget()
        return chunk

    def _ensure_open(self, day: int) -> DayChunk:
        if self.open_day == day:
            chunk = self.chunks[day]
            self._touch(day)
            return chunk
        if self.open_day is not None:
            self.close_day(self.open_day)
        if day in self.day_counts:
            # Reopening a closed day: fold its finished index back into
            # the open-day segments and drop the derived global order.
            chunk = self.chunk(day)
            self.open_day = day
            self._open_map = {}
            self._open_segments = [self.closed_index.pop(day)]
            self._global_index = None
            self.reopened = True
        else:
            chunk = DayChunk(day)
            self.chunks[day] = chunk
            self.day_counts[day] = 0
            self.day_order.append(day)
            self.open_day = day
            self._open_map = {}
            self._open_segments = []
        return chunk

    def close_day(self, day: int) -> None:
        """Finalize a day: build its sorted id-hash index, free lookups."""
        if self.open_day != day:
            return
        rows: list[np.ndarray] = []
        hashes: list[np.ndarray] = []
        for seg_hashes, seg_rows in self._open_segments:
            hashes.append(seg_hashes)
            rows.append(seg_rows)
        if self._open_map:
            hashes.append(_hash_ids(list(self._open_map)))
            rows.append(
                np.fromiter(
                    self._open_map.values(),
                    dtype=np.uint32,
                    count=len(self._open_map),
                )
            )
        if hashes:
            all_hashes = np.concatenate(hashes)
            all_rows = np.concatenate(rows)
            order = np.argsort(all_hashes, kind="stable")
            self.closed_index[day] = (all_hashes[order], all_rows[order])
        else:
            self.closed_index[day] = (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.uint32),
            )
        if self._global_index is not None:
            # Merge the finished day into the global index in place —
            # one searchsorted + three inserts, not a full rebuild.
            day_hashes, day_rows = self.closed_index[day]
            if len(day_hashes):
                gl_hashes, gl_days, gl_rows = self._global_index
                at = np.searchsorted(gl_hashes, day_hashes)
                self._global_index = (
                    np.insert(gl_hashes, at, day_hashes),
                    np.insert(gl_days, at, np.int32(day)),
                    np.insert(gl_rows, at, day_rows),
                )
        self.open_day = None
        self._open_map = {}
        self._open_segments = []
        self._enforce_budget()

    # -- membership ----------------------------------------------------------
    def _merged_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted (hashes, days, rows) across every *closed* day."""
        merged = self._global_index
        if merged is not None:
            return merged
        hashes: list[np.ndarray] = []
        days: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for day, (idx_hashes, idx_rows) in self.closed_index.items():
            if len(idx_hashes):
                hashes.append(idx_hashes)
                days.append(np.full(len(idx_hashes), day, dtype=np.int32))
                rows.append(idx_rows)
        if hashes:
            all_hashes = np.concatenate(hashes)
            order = np.argsort(all_hashes, kind="stable")
            merged = (
                all_hashes[order],
                np.concatenate(days)[order],
                np.concatenate(rows)[order],
            )
        else:
            merged = (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.uint32),
            )
        self._global_index = merged
        return merged

    def _day_has(self, day: int, job_id: str, h: np.uint64) -> int | None:
        """Row of ``job_id`` on ``day`` if present (hash + verify)."""
        if day == self.open_day:
            row = self._open_map.get(job_id)
            if row is not None:
                return row
            for seg_hashes, seg_rows in self._open_segments:
                lo = int(np.searchsorted(seg_hashes, h, side="left"))
                hi = int(np.searchsorted(seg_hashes, h, side="right"))
                for at in range(lo, hi):
                    row = int(seg_rows[at])
                    if self.chunks[day].job_id(row) == job_id:
                        return row
            return None
        index = self.closed_index.get(day)
        if index is None:
            return None
        idx_hashes, idx_rows = index
        lo = int(np.searchsorted(idx_hashes, h, side="left"))
        hi = int(np.searchsorted(idx_hashes, h, side="right"))
        for at in range(lo, hi):
            row = int(idx_rows[at])
            if self.chunk(day).job_id(row) == job_id:
                return row
        return None

    def find(self, job_id: str) -> tuple[int, int] | None:
        """(day, row) of ``job_id`` anywhere in the table."""
        h = _hash_ids([job_id])[0]
        if self.open_day is not None:
            row = self._day_has(self.open_day, job_id, h)
            if row is not None:
                return self.open_day, row
        gl_hashes, gl_days, gl_rows = self._merged_index()
        lo = int(np.searchsorted(gl_hashes, h, side="left"))
        hi = int(np.searchsorted(gl_hashes, h, side="right"))
        for at in range(lo, hi):
            day = int(gl_days[at])
            row = int(gl_rows[at])
            if self.chunk(day).job_id(row) == job_id:
                return day, row
        return None

    # -- appends -------------------------------------------------------------
    def append_job(
        self,
        day: int,
        job_id: str,
        submit_hour: float,
        plan: Expression,
        template: str,
        strict: str,
        sig_names: list[str],
        sig_sizes: list[int],
        params: dict,
        depends_on: tuple[str, ...],
    ) -> DayChunk:
        if self.find(job_id) is not None:
            raise ValueError(f"job {job_id!r} already ingested")
        chunk = self._ensure_open(day)
        plan_code = chunk.add_plan(plan, template, strict, sig_names, sig_sizes)
        param_code = chunk.add_params(plan_code, params)
        row = chunk.append_row(
            job_id, submit_hour, plan_code, param_code, depends_on
        )
        self._open_map[job_id] = row
        self.day_counts[day] = chunk.n
        self.n_jobs += 1
        self._enforce_budget()
        return chunk

    def append_batch(self, batch: JobBatch) -> DayChunk:
        job_ids = batch.col("job_ids")
        hashes = _hash_ids(job_ids)
        uniq, first, counts = np.unique(
            hashes, return_index=True, return_counts=True
        )
        if (counts > 1).any() and len(np.unique(job_ids)) != len(job_ids):
            seen: set[bytes] = set()
            for job_id in job_ids.tolist():
                if job_id in seen:
                    raise ValueError(
                        f"job {job_id.decode()!r} already ingested"
                    )
                seen.add(job_id)
        chunk = self._ensure_open(batch.day)
        base_row = chunk.n
        # Cross-day duplicate probe against the single merged index:
        # one searchsorted for the whole batch regardless of how many
        # historical days exist, verifying only hash collisions.
        gl_hashes, gl_days, gl_rows = self._merged_index()
        if len(gl_hashes):
            lo = np.searchsorted(gl_hashes, uniq, side="left")
            hi = np.searchsorted(gl_hashes, uniq, side="right")
            for pos in np.nonzero(hi > lo)[0]:
                job_id = batch.job_id(int(first[pos]))
                for at in range(int(lo[pos]), int(hi[pos])):
                    day = int(gl_days[at])
                    if self.chunk(day).job_id(int(gl_rows[at])) == job_id:
                        raise ValueError(
                            f"job {job_id!r} already ingested"
                        )
        if self._open_map or self._open_segments:
            for pos in range(len(uniq)):
                job_id = batch.job_id(int(first[pos]))
                if self._day_has(batch.day, job_id, uniq[pos]) is not None:
                    raise ValueError(f"job {job_id!r} already ingested")
        chunk.append_batch(batch)
        order = np.argsort(hashes, kind="stable")
        self._open_segments.append(
            (
                hashes[order],
                (base_row + np.arange(len(batch), dtype=np.uint32))[order],
            )
        )
        self.day_counts[batch.day] = chunk.n
        self.n_jobs += len(batch)
        self._enforce_budget()
        return chunk

    # -- eviction ------------------------------------------------------------
    def hot_bytes(self) -> int:
        return sum(chunk.nbytes() for chunk in self.chunks.values())

    def _write_chunk(self, day: int, chunk: DayChunk) -> None:
        """One atomic write of the chunk's arrays (tmp + rename)."""
        started = time.perf_counter()
        name = f"day-{day:05d}.npz"
        path = self.spill_dir / name
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(name + ".tmp")
        with tmp.open("wb") as fh:
            np.savez(fh, **chunk.columns())
        tmp.replace(path)
        chunk.dirty = False
        self.chunk_files[day] = name
        self.spill_s += time.perf_counter() - started

    def spill(self, day: int) -> None:
        """Write a closed hot day to the spill dir and drop it from memory.

        The budget calls this on its LRU victims; a clean chunk whose
        file is current is dropped without rewriting.
        """
        if day == self.open_day:
            raise ValueError(f"day {day} is open: close it before spilling")
        chunk = self.chunks[day]
        if chunk.dirty or day not in self.chunk_files:
            self._write_chunk(day, chunk)
            self.spills += 1
        del self.chunks[day]

    def _enforce_budget(self) -> None:
        if self.memory_budget_bytes is None or self.spill_dir is None:
            return
        while len(self.chunks) > 1 and self.hot_bytes() > self.memory_budget_bytes:
            victim = next(
                (d for d in self.chunks if d != self.open_day), None
            )
            if victim is None:
                break
            self.spill(victim)

    def flush(self) -> None:
        """Write every dirty hot chunk to the spill dir (keeps them hot)."""
        if self.spill_dir is None:
            return
        for day, chunk in self.chunks.items():
            if chunk.dirty or day not in self.chunk_files:
                self._write_chunk(day, chunk)

    # -- iteration -----------------------------------------------------------
    def iter_id_deps(self):
        """(job_id, depends_on) pairs in global ingestion order, lazily."""
        for day in self.day_order:
            chunk = self.chunk(day)
            deps = chunk.deps_by_row()
            for row, job_id in enumerate(chunk.job_id_list()):
                yield job_id, deps.get(row, ())

    def stats(self) -> dict:
        return {
            "jobs": self.n_jobs,
            "days": len(self.day_counts),
            "hot_chunks": len(self.chunks),
            "spilled_chunks": len(self.chunk_files),
            "hot_bytes": self.hot_bytes(),
            "memory_budget_bytes": self.memory_budget_bytes,
            "spills": self.spills,
            "loads": self.loads,
            "spill_s": self.spill_s,
            "load_s": self.load_s,
        }

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = {
            name: getattr(self, name)
            for name in (
                "memory_budget_bytes", "day_counts", "day_order",
                "closed_index", "open_day", "_open_map", "_open_segments",
                "reopened", "n_jobs", "spills", "loads", "chunk_files",
            )
        }
        state["spill_dir"] = str(self.spill_dir) if self.spill_dir else None
        if self.spill_dir is not None:
            # Manifest mode: chunks live as spill files; the pickle
            # carries only their names (plus the open day inline so a
            # restore never depends on a mid-day flush).
            self.flush()
            state["inline_chunks"] = {
                day: chunk
                for day, chunk in self.chunks.items()
                if day == self.open_day
            }
        else:
            state["inline_chunks"] = dict(self.chunks)
            state["chunk_files"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            memory_budget_bytes=state["memory_budget_bytes"],
            spill_dir=state["spill_dir"],
        )
        for name in (
            "day_counts", "day_order", "closed_index", "open_day",
            "_open_map", "_open_segments", "reopened", "n_jobs",
            "spills", "loads", "chunk_files",
        ):
            setattr(self, name, state[name])
        self.chunks = dict(state["inline_chunks"])
        for chunk in self.chunks.values():
            if self.spill_dir is None:
                chunk.dirty = True


class _RecordsView:
    """Sequence view over every record, materialized on demand."""

    def __init__(self, repo: "WorkloadRepository") -> None:
        self._repo = repo

    def __len__(self) -> int:
        return len(self._repo)

    def __iter__(self):
        table = self._repo._table
        for day in table.day_order:
            yield from table.chunk(day).iter_records()

    def _locate(self, index: int) -> JobRecord:
        table = self._repo._table
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        for day in table.day_order:
            count = table.day_counts[day]
            if index < count:
                return table.chunk(day).record(index)
            index -= count
        raise IndexError("record index out of range")

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._locate(i) for i in range(*index.indices(len(self)))]
        return self._locate(index)


# ---------------------------------------------------------------------------
# the repository
# ---------------------------------------------------------------------------


class WorkloadRepository:
    """Signature-indexed store of everything the platform has seen.

    Default construction is fully in-memory and behaviourally identical
    to the historical list-based repository.  Passing
    ``memory_budget_bytes`` + ``spill_dir`` bounds resident memory: cold
    day chunks spill to disk and reload transparently on access.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        self._table = JobTable(memory_budget_bytes, spill_dir)
        # sig -> [set of days, instance count], first-sighting order.
        self._template_stats: dict[str, list] = {}
        self._day_summaries: dict[tuple[int, int], tuple[int, tuple]] = {}
        self._closed_involved: dict[int, int] = {}
        self._dep_fallback = False
        self._days_cache: list[int] | None = None

    def __len__(self) -> int:
        return self._table.n_jobs

    @property
    def records(self) -> _RecordsView:
        return _RecordsView(self)

    # -- ingestion -----------------------------------------------------------
    def _note_day_rollover(self, day: int) -> None:
        previous = self._table.open_day
        if previous is not None and previous != day:
            self._resolve_involved(previous, closing=True)
            self._table.close_day(previous)

    def _track_templates(self, template: str, day: int, count: int) -> None:
        stat = self._template_stats.get(template)
        if stat is None:
            self._template_stats[template] = [{day}, count]
        else:
            stat[0].add(day)
            stat[1] += count

    def ingest_job(self, job: Job) -> JobRecord:
        # One bottom-up pass hashes every node; the full-plan signatures
        # and both subexpression maps come out of the same traversal.
        strict_map, template_map = enumerate_all_signatures(job.plan)
        plan_sigs = signatures(job.plan)
        day = job.day
        self._note_day_rollover(day)
        self._table.append_job(
            day=day,
            job_id=job.job_id,
            submit_hour=job.submit_hour,
            plan=job.plan,
            template=plan_sigs.template,
            strict=plan_sigs.strict,
            sig_names=list(strict_map),
            sig_sizes=[node.size for node in strict_map.values()],
            params=dict(job.params),
            depends_on=job.depends_on,
        )
        self._track_templates(plan_sigs.template, day, 1)
        self._invalidate_day(day)
        return JobRecord(
            job_id=job.job_id,
            submit_hour=job.submit_hour,
            plan=job.plan,
            template=plan_sigs.template,
            strict=plan_sigs.strict,
            subexpression_templates=template_map,
            subexpression_strict=strict_map,
            params=dict(job.params),
            depends_on=job.depends_on,
        )

    def ingest_batch(self, batch: JobBatch | list[Job]) -> int:
        """Bulk-append one day's columnar batch; returns rows added."""
        if not isinstance(batch, JobBatch):
            batch = JobBatch.from_jobs(batch)
        self._note_day_rollover(batch.day)
        self._table.append_batch(batch)
        # Templates are a function of the skeleton, and skeletons are
        # interned in plan order: folding rows per skeleton visits
        # templates in the same first-sighting order as per plan.
        plan_rows = np.bincount(batch.plan_codes, minlength=batch.n_plans)
        skel_rows = np.bincount(
            batch.plan_skels,
            weights=plan_rows,
            minlength=len(batch.skeletons),
        )
        for template, rows in zip(
            batch.skel_templates.tolist(), skel_rows.tolist()
        ):
            self._track_templates(template.decode(), batch.day, int(rows))
        self._invalidate_day(batch.day)
        return len(batch)

    def ingest(self, workload: Workload) -> "WorkloadRepository":
        for job in workload.jobs:
            self.ingest_job(job)
        return self

    def _invalidate_day(self, day: int) -> None:
        if self._days_cache is not None and (
            not self._days_cache or day not in self._table.day_counts
            or self._days_cache[-1] < day or day not in self._days_cache
        ):
            self._days_cache = None
        for key in [k for k in self._day_summaries if k[0] == day]:
            del self._day_summaries[key]
        self._closed_involved.pop(day, None)

    # -- dependency involvement ---------------------------------------------
    def _resolve_involved(self, day: int, closing: bool = False) -> int:
        """Distinct ids involved in dependencies on ``day`` (cached)."""
        cached = self._closed_involved.get(day)
        if cached is not None and not closing:
            return cached
        chunk = self._table.chunk(day)
        dep_ids = chunk.col("dep_ids")
        job_ids = chunk.col("job_ids")
        involved = np.concatenate([job_ids[chunk.col("dep_rows")], dep_ids])
        if len(dep_ids) and not np.isin(dep_ids, job_ids).all():
            # A dependency names a job outside this day: per-day counts
            # are no longer disjoint, so analysis falls back to the
            # exact global union.
            self._dep_fallback = True
        count = int(np.unique(involved).size)
        self._closed_involved[day] = count
        return count

    def dependency_involved(self) -> int:
        """Distinct job ids participating in any dependency edge."""
        if self._dep_fallback:
            involved: set[str] = set()
            for job_id, deps in self._table.iter_id_deps():
                if deps:
                    involved.add(job_id)
                    involved.update(deps)
            return len(involved)
        return sum(
            self._resolve_involved(day) for day in self._table.day_order
        )

    # -- incremental statistics ----------------------------------------------
    def template_stats(self) -> dict[str, tuple[int, int]]:
        """sig -> (distinct days, instances), first-sighting order."""
        return {
            sig: (len(days), count)
            for sig, (days, count) in self._template_stats.items()
        }

    def day_sharing_summary(
        self, day: int, min_size: int = 2
    ) -> tuple[int, int, int, dict[str, int]]:
        """One day's sharing statistics, vectorized over the chunk.

        Returns ``(day, n_jobs, n_sharing_jobs, {sig: jobs sharing})``
        with dict order equal to first-sighting order — byte-identical
        to a serial scan over per-record signature dicts.  Summaries of
        finished days are cached, so re-analysis after each fabric tick
        only computes the newest day.
        """
        n_jobs = self._table.day_counts.get(day, 0)
        key = (day, min_size)
        cached = self._day_summaries.get(key)
        if cached is not None and cached[0] == n_jobs:
            return cached[1]
        chunk = self._table.chunk(day)
        flat_job, flat_sig = chunk.sig_rows(min_size)
        if len(flat_sig):
            sig_names = chunk.col("sig_names")
            per_sig = np.bincount(flat_sig, minlength=len(sig_names))
            shared_mask = per_sig > 1
            flat_shared = shared_mask[flat_sig]
            n_sharing = int(np.unique(flat_job[flat_shared]).size)
            codes, first_pos = np.unique(flat_sig, return_index=True)
            keep = shared_mask[codes]
            codes, first_pos = codes[keep], first_pos[keep]
            codes = codes[np.argsort(first_pos, kind="stable")]
            shared = dict(
                zip(
                    (name.decode() for name in sig_names[codes].tolist()),
                    per_sig[codes].tolist(),
                )
            )
        else:
            n_sharing = 0
            shared = {}
        summary = (day, n_jobs, n_sharing, shared)
        self._day_summaries[key] = (n_jobs, summary)
        return summary

    # -- access --------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        found = self._table.find(job_id)
        if found is None:
            raise KeyError(f"unknown job {job_id!r}")
        day, row = found
        return self._table.chunk(day).record(row)

    def templates(self) -> dict[str, list[JobRecord]]:
        grouped: dict[str, list[JobRecord]] = {
            sig: [] for sig in self._template_stats
        }
        for record in self.records:
            grouped[record.template].append(record)
        return grouped

    def instances_of(self, template: str) -> list[JobRecord]:
        if template not in self._template_stats:
            return []
        return [r for r in self.records if r.template == template]

    def by_day(self, day: int) -> list[JobRecord]:
        """Records of one day, in ingestion order (day-indexed: no scan)."""
        if day not in self._table.day_counts:
            return []
        return self._table.chunk(day).records()

    def days(self) -> list[int]:
        if self._days_cache is None:
            self._days_cache = sorted(self._table.day_counts)
        return list(self._days_cache)

    def dependency_graph(self) -> nx.DiGraph:
        """Job-level DAG: edge producer -> consumer."""
        graph = nx.DiGraph()
        for job_id, deps in self._table.iter_id_deps():
            graph.add_node(job_id)
            for dep in deps:
                graph.add_edge(dep, job_id)
        return graph

    # -- operations ----------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> int | None:
        return self._table.memory_budget_bytes

    @property
    def spill_dir(self) -> Path | None:
        return self._table.spill_dir

    def flush(self) -> None:
        """Spill every dirty chunk so the on-disk manifest is complete."""
        self._table.flush()

    def chunk_stats(self) -> dict:
        """Hot/spilled chunk counts and byte estimates (ops surface)."""
        return self._table.stats()
