"""Catalog: synthetic base tables with per-column statistics.

The engine never materializes rows; "data" is statistics.  Each column
carries a distinct count, a value range, and a skew coefficient that the
*true* cardinality model uses but the default estimator does not — this
asymmetry is the controllable estimation error that gives the learned
cardinality/cost services something real to improve (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column of a synthetic table."""

    name: str
    distinct: int
    low: float = 0.0
    high: float = 1000.0
    skew: float = 0.0  # 0 = uniform; higher = more mass near ``low``

    def __post_init__(self) -> None:
        if self.distinct < 1:
            raise ValueError("distinct must be >= 1")
        if self.high <= self.low:
            raise ValueError("high must exceed low")
        if self.skew < 0:
            raise ValueError("skew must be non-negative")


@dataclass(frozen=True)
class TableDef:
    """A synthetic base table: a row count plus column statistics."""

    name: str
    n_rows: int
    columns: tuple[ColumnStats, ...]
    row_bytes: int = 100

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if not self.columns:
            raise ValueError("a table needs at least one column")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in {self.name}")

    def column(self, name: str) -> ColumnStats:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


class Catalog:
    """Name -> table registry shared by optimizer, executor, and generators."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}

    def add(self, table: TableDef) -> None:
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def get(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> list[TableDef]:
        return list(self._tables.values())

    def clone(self) -> "Catalog":
        """Shallow copy: same (immutable) table defs, independent registry.

        Used by services that register transient tables — e.g. CloudViews
        materializing one day's views — without polluting the shared
        catalog.
        """
        out = Catalog()
        out._tables = dict(self._tables)
        return out

    def owner_of_column(self, column: str, among: set[str]) -> str | None:
        """Which of the tables in ``among`` owns ``column`` (None if absent).

        Ties (several tables carrying the column) break alphabetically.
        Iterating the raw set here would let the interpreter's hash salt
        pick the owner, making estimates — and everything downstream of
        them — differ between runs.
        """
        for name in sorted(among):
            if name in self._tables and self._tables[name].has_column(column):
                return name
        return None

    @classmethod
    def synthetic(
        cls,
        n_tables: int = 8,
        rng: np.random.Generator | int | None = None,
    ) -> "Catalog":
        """A random star-ish catalog: big fact tables, small dimensions.

        Every table gets a shared join key column (``key``) plus a few
        filterable attribute columns with varied skew.
        """
        generator = np.random.default_rng(rng)
        catalog = cls()
        for i in range(n_tables):
            is_fact = i < max(1, n_tables // 4)
            n_rows = int(
                generator.integers(1_000_000, 50_000_000)
                if is_fact
                else generator.integers(1_000, 500_000)
            )
            # Near-unique join keys give foreign-key join semantics: the
            # output of a key join stays on the order of its inputs
            # instead of exploding quadratically.
            columns = [ColumnStats("key", distinct=max(10, n_rows // 2))]
            for j in range(int(generator.integers(2, 5))):
                columns.append(
                    ColumnStats(
                        name=f"a{j}",
                        distinct=int(generator.integers(2, 10_000)),
                        low=0.0,
                        high=float(generator.integers(100, 10_000)),
                        skew=float(generator.uniform(0.0, 2.0)),
                    )
                )
            catalog.add(
                TableDef(
                    name=f"t{i}",
                    n_rows=n_rows,
                    columns=tuple(columns),
                    row_bytes=int(generator.integers(50, 500)),
                )
            )
        return catalog
