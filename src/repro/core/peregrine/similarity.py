"""Plan similarity beyond exact templates.

Peregrine categorizes queries "into templates based on their recurrence
and *similarity*" [20].  Exact template signatures catch literal drift;
similarity catches structural near-misses — an ad-hoc job that is one
operator away from a known recurring template can still borrow that
template's learned knowledge (with appropriate caution).

Plans embed into a small interpretable feature vector (operator counts,
table membership, predicate count, shape); the index answers
nearest-template queries under a normalized distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import Expression, signatures

_OPERATORS = ("Scan", "Filter", "Project", "Join", "Aggregate", "Union")


def plan_embedding(plan: Expression, table_vocabulary: list[str]) -> np.ndarray:
    """Interpretable structural embedding of a plan.

    Layout: per-operator counts, per-table membership flags, predicate
    count, depth, size.  Every component is meaningful to an engineer
    reading a nearest-neighbour explanation (Insight 1's explainability).
    """
    counts = dict.fromkeys(_OPERATORS, 0.0)
    n_predicates = 0.0
    for node in plan.walk():
        name = type(node).__name__
        if name in counts:
            counts[name] += 1.0
        predicates = getattr(node, "predicates", ())
        n_predicates += len(predicates)
    tables = plan.tables()
    membership = [1.0 if t in tables else 0.0 for t in table_vocabulary]
    return np.array(
        [counts[op] for op in _OPERATORS]
        + membership
        + [n_predicates, float(plan.depth), float(plan.size)]
    )


@dataclass
class SimilarityMatch:
    """A nearest-template answer."""

    template: str
    distance: float
    representative: Expression


class SimilarityIndex:
    """Nearest-template lookup over embedded representatives."""

    def __init__(self, table_vocabulary: list[str]) -> None:
        if not table_vocabulary:
            raise ValueError("table_vocabulary must be non-empty")
        self.table_vocabulary = sorted(table_vocabulary)
        self._templates: list[str] = []
        self._template_index: dict[str, int] = {}
        self._representatives: list[Expression] = []
        self._embeddings: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._templates)

    def _append(self, template: str, plan: Expression, row: np.ndarray) -> None:
        self._template_index[template] = len(self._templates)
        self._templates.append(template)
        self._representatives.append(plan)
        self._embeddings.append(row)

    def add(self, plan: Expression) -> str:
        """Index a plan's template (first representative wins).

        The embedding row is computed once here; the distance matrix
        grows lazily by appending pending rows instead of rebuilding
        from scratch on every add.
        """
        template = signatures(plan).template
        if template not in self._template_index:
            self._append(
                template, plan, plan_embedding(plan, self.table_vocabulary)
            )
        return template

    def bulk_add(self, plans: list[Expression]) -> list[str]:
        """Index many plans; returns each input plan's template, in order."""
        return [self.add(plan) for plan in plans]

    def _ensure_matrix(self) -> None:
        n_rows = len(self._embeddings)
        if self._matrix is not None and self._matrix.shape[0] == n_rows:
            return
        if self._matrix is None:
            self._matrix = np.vstack(self._embeddings)
        else:
            # Incremental growth: append only the rows added since the
            # last build instead of re-embedding every representative.
            pending = self._embeddings[self._matrix.shape[0] :]
            self._matrix = np.vstack([self._matrix, *pending])
        scale = self._matrix.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale

    def nearest(
        self, plan: Expression, max_distance: float | None = None
    ) -> SimilarityMatch | None:
        """Closest indexed template (None if empty or beyond the cutoff).

        An exact template hit always returns distance 0.0.
        """
        if not self._templates:
            return None
        template = signatures(plan).template
        idx = self._template_index.get(template)
        if idx is not None:
            return SimilarityMatch(template, 0.0, self._representatives[idx])
        self._ensure_matrix()
        query = plan_embedding(plan, self.table_vocabulary) / self._scale
        scaled = self._matrix / self._scale
        distances = np.linalg.norm(scaled - query, axis=1)
        best = int(np.argmin(distances))
        distance = float(distances[best])
        if max_distance is not None and distance > max_distance:
            return None
        return SimilarityMatch(
            self._templates[best], distance, self._representatives[best]
        )

    def neighbours(
        self, plan: Expression, k: int = 3
    ) -> list[SimilarityMatch]:
        """The ``k`` closest templates, nearest first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self._templates:
            return []
        self._ensure_matrix()
        query = plan_embedding(plan, self.table_vocabulary) / self._scale
        scaled = self._matrix / self._scale
        distances = np.linalg.norm(scaled - query, axis=1)
        order = np.argsort(distances)[:k]
        return [
            SimilarityMatch(
                self._templates[i],
                float(distances[i]),
                self._representatives[i],
            )
            for i in order
        ]
