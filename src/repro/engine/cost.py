"""Plan cost model: per-operator costs driven by a cardinality model.

The cost model is *parameterized by* the cardinality model it consumes —
the externalization hook from Section 4.2: "we externalize the learned
components and add simple extensions to the optimizer to leverage these
external services".  Swapping in learned cardinalities changes costs (and
hence plan choices) without touching the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.catalog import Catalog
from repro.engine.estimator import CardinalityModel
from repro.engine.signatures import signatures
from repro.engine.expr import (
    Aggregate,
    Expression,
    Filter,
    Join,
    Project,
    Scan,
    Union,
)


@dataclass(frozen=True)
class PlanCost:
    """Total plan cost and its CPU/IO breakdown (abstract cost units)."""

    cpu: float
    io: float

    @property
    def total(self) -> float:
        return self.cpu + self.io

    def __add__(self, other: "PlanCost") -> "PlanCost":
        return PlanCost(self.cpu + other.cpu, self.io + other.io)


#: Relative width multiplier applied per projected-away column fraction.
_FULL_WIDTH = 1.0


class DefaultCostModel:
    """Hash-join style analytical cost model.

    Costs (abstract units, roughly "rows touched"):

    - Scan: IO = rows * width
    - Filter: CPU = input rows (predicate evaluation)
    - Project: CPU = input rows * 0.1 (cheap, but narrows width)
    - Join: CPU = 1.2 * build(left) + probe(right) + output
    - Aggregate: CPU = input rows * 1.5 (hashing) + output
    - Union: CPU = output * 0.05 (concatenation)

    Width tracking makes projection pushdown profitable: a node's IO/CPU
    scale with the estimated fraction of columns still carried.
    """

    def __init__(self, catalog: Catalog, cardinality: CardinalityModel) -> None:
        self.catalog = catalog
        self.cardinality = cardinality
        # Width depends on plan structure only (literals never change
        # column sets), so it memoizes per template signature.  The
        # cardinality model is deliberately NOT memoized here: learned
        # models can retrain between calls.
        self._width_memo: dict[str, float] = {}

    def __getstate__(self) -> dict:
        # Keep pickles (checkpoints) small: a restored copy rebuilds
        # its own memo instead of deserializing the original's.
        state = dict(self.__dict__)
        state["_width_memo"] = {}
        return state

    def cost(self, expr: Expression) -> PlanCost:
        total = PlanCost(0.0, 0.0)
        for node in expr.walk():
            total = total + self._node_cost(node)
        return total

    def _node_cost(self, node: Expression) -> PlanCost:
        width = self.width_fraction(node)
        rows_out = self.cardinality.estimate(node)
        if isinstance(node, Scan):
            return PlanCost(cpu=0.0, io=rows_out * width)
        if isinstance(node, Filter):
            rows_in = self.cardinality.estimate(node.child)
            return PlanCost(cpu=rows_in * width, io=0.0)
        if isinstance(node, Project):
            rows_in = self.cardinality.estimate(node.child)
            return PlanCost(cpu=0.1 * rows_in, io=0.0)
        if isinstance(node, Join):
            build = self.cardinality.estimate(node.left)
            probe = self.cardinality.estimate(node.right)
            return PlanCost(
                cpu=(1.2 * build + probe + rows_out) * width, io=0.0
            )
        if isinstance(node, Aggregate):
            rows_in = self.cardinality.estimate(node.child)
            return PlanCost(cpu=(1.5 * rows_in + rows_out) * width, io=0.0)
        if isinstance(node, Union):
            return PlanCost(cpu=0.05 * rows_out * width, io=0.0)
        raise TypeError(f"unknown expression node: {type(node).__name__}")

    def width_fraction(self, node: Expression) -> float:
        """Estimated fraction of base-table width carried at this node.

        A Project keeps ``len(columns) / total base columns`` of the width;
        everything else inherits the minimum of its children (joins carry
        both sides' surviving columns, approximated by the mean).
        """
        sig = signatures(node).template
        cached = self._width_memo.get(sig)
        if cached is not None:
            return cached
        if isinstance(node, Scan):
            width = _FULL_WIDTH
        elif isinstance(node, Project):
            base_columns = self._base_column_count(node)
            width = min(
                _FULL_WIDTH, max(0.05, len(node.columns) / max(base_columns, 1))
            )
        else:
            fractions = [self.width_fraction(c) for c in node.children]
            width = sum(fractions) / len(fractions)
        self._width_memo[sig] = width
        return width

    def _base_column_count(self, node: Expression) -> int:
        total = 0
        for table in node.tables():
            if table in self.catalog:
                total += len(self.catalog.get(table).columns)
        return max(total, 1)

    def output_bytes(self, node: Expression) -> float:
        """Estimated size in bytes of this node's output (for stage sizing)."""
        rows = self.cardinality.estimate(node)
        row_bytes = 0.0
        tables = node.tables()
        for table in tables:
            if table in self.catalog:
                row_bytes += self.catalog.get(table).row_bytes
        if not tables or row_bytes == 0.0:
            row_bytes = 100.0
        return rows * row_bytes * self.width_fraction(node)
