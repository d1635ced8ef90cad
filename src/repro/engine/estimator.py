"""Cardinality estimation: the imperfect default and the ground truth.

``DefaultCardinalityEstimator`` is a textbook System-R style estimator:
uniformity and independence assumptions, ``1/distinct`` equality
selectivity, no correlation knowledge.  ``TrueCardinalityModel`` is the
simulator's ground truth: it honours column skew and deterministic
correlation factors the default estimator cannot see.

The gap between the two is the *controllable estimation error* that the
learned cardinality micromodels (:mod:`repro.core.cardinality`) close —
mirroring how [49] trains per-template models from observed runtime
cardinalities in SCOPE.
"""

from __future__ import annotations

import hashlib
from typing import Protocol

import numpy as np

from repro.engine.catalog import Catalog, ColumnStats
from repro.engine.signatures import signatures
from repro.engine.expr import (
    Aggregate,
    Expression,
    Filter,
    Join,
    Predicate,
    Project,
    Scan,
    Union,
)


class CardinalityModel(Protocol):
    """Anything that can map an expression to an output row count."""

    def estimate(self, expr: Expression) -> float:
        ...


def _uniform_fraction(pred: Predicate, col: ColumnStats) -> float:
    """Selectivity under uniformity (what the default estimator believes)."""
    span = col.high - col.low
    position = float(np.clip((pred.value - col.low) / span, 0.0, 1.0))
    if pred.op in ("<", "<="):
        return position
    if pred.op in (">", ">="):
        return 1.0 - position
    if pred.op == "=":
        return 1.0 / col.distinct
    # != is the complement of equality.
    return 1.0 - 1.0 / col.distinct


class _EstimatorBase:
    """Shared recursive walk; subclasses override the leaf selectivities.

    Estimates are memoized per strict signature: both concrete models
    are pure functions of (expression, catalog, seed), and the fleet
    analyses estimate the same shared subexpressions across thousands of
    jobs, so the recursive walk runs once per distinct subtree instead
    of once per reference to it.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._estimate_memo: dict[str, float] = {}

    def __getstate__(self) -> dict:
        # Keep pickles (checkpoints) small: a restored copy rebuilds
        # its own memo instead of deserializing the original's.
        state = dict(self.__dict__)
        state["_estimate_memo"] = {}
        return state

    # -- hooks ---------------------------------------------------------------
    def _predicate_selectivity(self, pred: Predicate, col: ColumnStats) -> float:
        raise NotImplementedError

    def _conjunction(self, selectivities: list[float], expr: Filter) -> float:
        raise NotImplementedError

    def _join_factor(self, expr: Join) -> float:
        raise NotImplementedError

    def _aggregate_rows(self, input_rows: float, expr: Aggregate) -> float:
        raise NotImplementedError

    # -- estimation -------------------------------------------------------------
    def estimate(self, expr: Expression) -> float:
        sig = signatures(expr).strict
        cached = self._estimate_memo.get(sig)
        if cached is not None:
            return cached
        value = self._estimate(expr)
        self._estimate_memo[sig] = value
        return value

    def _estimate(self, expr: Expression) -> float:
        if isinstance(expr, Scan):
            return float(self.catalog.get(expr.table).n_rows)
        if isinstance(expr, Project):
            return self.estimate(expr.child)
        if isinstance(expr, Filter):
            input_rows = self.estimate(expr.child)
            selectivities = [
                self._predicate_selectivity(p, self._resolve_column(expr, p))
                for p in expr.predicates
            ]
            return max(1.0, input_rows * self._conjunction(selectivities, expr))
        if isinstance(expr, Join):
            left = self.estimate(expr.left)
            right = self.estimate(expr.right)
            distinct = self._join_key_distinct(expr)
            base = left * right / max(distinct, 1.0)
            return max(1.0, base * self._join_factor(expr))
        if isinstance(expr, Aggregate):
            return max(1.0, self._aggregate_rows(self.estimate(expr.child), expr))
        if isinstance(expr, Union):
            return self.estimate(expr.left) + self.estimate(expr.right)
        raise TypeError(f"unknown expression node: {type(expr).__name__}")

    def selectivity(self, expr: Expression) -> float:
        """Output rows / input rows for a single-input node (1.0 for leaves)."""
        if not expr.children:
            return 1.0
        input_rows = sum(self.estimate(c) for c in expr.children)
        return self.estimate(expr) / max(input_rows, 1.0)

    # -- helpers --------------------------------------------------------------
    def _resolve_column(self, expr: Filter, pred: Predicate) -> ColumnStats:
        owner = self.catalog.owner_of_column(pred.column, expr.tables())
        if owner is None:
            # Unknown column: fall back to a generic mid-cardinality column.
            return ColumnStats(pred.column, distinct=100)
        return self.catalog.get(owner).column(pred.column)

    def _join_key_distinct(self, expr: Join) -> float:
        distincts = []
        for side, key in ((expr.left, expr.left_key), (expr.right, expr.right_key)):
            owner = self.catalog.owner_of_column(key, side.tables())
            if owner is not None:
                distincts.append(self.catalog.get(owner).column(key).distinct)
        if not distincts:
            return 100.0
        return float(max(distincts))


class DefaultCardinalityEstimator(_EstimatorBase):
    """Uniformity + independence: the optimizer's built-in estimator."""

    def _predicate_selectivity(self, pred: Predicate, col: ColumnStats) -> float:
        return _uniform_fraction(pred, col)

    def _conjunction(self, selectivities: list[float], expr: Filter) -> float:
        out = 1.0
        for s in selectivities:
            out *= s
        return out

    def _join_factor(self, expr: Join) -> float:
        return 1.0

    def _aggregate_rows(self, input_rows: float, expr: Aggregate) -> float:
        if not expr.group_by:
            return 1.0
        groups = 1.0
        for column in expr.group_by:
            owner = self.catalog.owner_of_column(column, expr.tables())
            distinct = (
                self.catalog.get(owner).column(column).distinct
                if owner is not None
                else 100
            )
            groups *= distinct
        return min(input_rows, groups)


def _stable_unit(seed: int, *parts: str) -> float:
    """Deterministic pseudo-random float in [0, 1) from string parts."""
    payload = f"{seed}|" + "|".join(parts)
    digest = hashlib.sha1(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class TrueCardinalityModel(_EstimatorBase):
    """Ground-truth cardinalities with skew and correlation effects.

    Deterministic given ``seed``: the same (sub)expression always produces
    the same "actual" cardinality, which is what lets recurring jobs teach
    the micromodels anything.
    """

    def __init__(self, catalog: Catalog, seed: int = 0) -> None:
        super().__init__(catalog)
        self.seed = seed

    def _predicate_selectivity(self, pred: Predicate, col: ColumnStats) -> float:
        uniform = _uniform_fraction(pred, col)
        if pred.op in ("<", "<="):
            # Mass concentrated near ``low``: low cutoffs capture more rows.
            return float(uniform ** (1.0 / (1.0 + col.skew)))
        if pred.op in (">", ">="):
            return float(1.0 - (1.0 - uniform) ** (1.0 / (1.0 + col.skew)))
        if pred.op == "=":
            span = col.high - col.low
            position = float(np.clip((pred.value - col.low) / span, 0.0, 1.0))
            # Popular (low) values are up to (1 + 4*skew)x more frequent.
            boost = 1.0 + 4.0 * col.skew * (1.0 - position)
            return min(1.0, boost / col.distinct)
        return 1.0 - self._predicate_selectivity(
            Predicate(pred.column, "=", pred.value), col
        )

    def _conjunction(self, selectivities: list[float], expr: Filter) -> float:
        independent = 1.0
        for s in selectivities:
            independent *= s
        if len(selectivities) < 2:
            return independent
        # Correlated predicates: the true conjunctive selectivity sits
        # between the independent product and the minimum selectivity.
        columns = ",".join(sorted(p.column for p in expr.predicates))
        tables = ",".join(sorted(expr.tables()))
        weight = _stable_unit(self.seed, "corr", tables, columns)
        return independent ** (1.0 - 0.6 * weight)

    def _join_factor(self, expr: Join) -> float:
        tables = ",".join(sorted(expr.left.tables() | expr.right.tables()))
        keys = f"{expr.left_key}={expr.right_key}"
        u = _stable_unit(self.seed, "join", tables, keys)
        # Containment mismatch: true join output 0.25x-4x the estimate.
        return float(4.0 ** (2.0 * u - 1.0))

    def _aggregate_rows(self, input_rows: float, expr: Aggregate) -> float:
        if not expr.group_by:
            return 1.0
        default = DefaultCardinalityEstimator(self.catalog)._aggregate_rows(
            input_rows, expr
        )
        tables = ",".join(sorted(expr.tables()))
        u = _stable_unit(self.seed, "agg", tables, ",".join(expr.group_by))
        # Real group counts are usually far below the distinct-product bound.
        return min(input_rows, default * (0.05 + 0.95 * u))
