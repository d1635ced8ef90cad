"""Plan skeletons: an expression tree as (structure text, literal values).

A columnar day stores each unique plan as a *skeleton* code plus its
predicate literals, not as an :class:`Expression` tree.  The skeleton
is the plan with every literal value masked — exactly the information
the template signature hashes — written as compact JSON, so a day with
36k plans holds a few thousand skeleton strings and one float column.
Recurring instances of a script share a skeleton by construction.

Encoding (pre-order structure, literals in post-order):

- ``["S", table]``
- ``["F", child, [[column, op, kind], ...]]`` — ``kind`` is ``"f"``
  for a float literal, ``"i"`` for an int (both stored as float64)
- ``["P", child, [columns...]]``
- ``["J", left, right, left_key, right_key]``
- ``["A", child, [group_by...]]``
- ``["U", left, right]``

Literals are listed children-first, then the node's own predicates in
order — the post-order walk :meth:`Expression.walk` uses.
:func:`build_plan` inverts :func:`plan_skeleton` exactly: the rebuilt
tree is structurally equal to the original and hashes to the same
signatures.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Sequence

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

_SEPARATORS = (",", ":")


def _spec(expr: Expression, literals: list[float]) -> list:
    """The nested-list skeleton of ``expr``; appends its literals."""
    if isinstance(expr, Scan):
        return ["S", expr.table]
    if isinstance(expr, Filter):
        child = _spec(expr.child, literals)
        preds = []
        for pred in expr.predicates:
            value = pred.value
            preds.append([pred.column, pred.op, "i" if type(value) is int else "f"])
            literals.append(float(value))
        return ["F", child, preds]
    if isinstance(expr, Project):
        return ["P", _spec(expr.child, literals), list(expr.columns)]
    if isinstance(expr, Join):
        left = _spec(expr.left, literals)
        right = _spec(expr.right, literals)
        return ["J", left, right, expr.left_key, expr.right_key]
    if isinstance(expr, Aggregate):
        return ["A", _spec(expr.child, literals), list(expr.group_by)]
    if isinstance(expr, Union):
        left = _spec(expr.left, literals)
        return ["U", left, _spec(expr.right, literals)]
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def skeleton_text(spec: list) -> str:
    """Canonical ASCII text of a skeleton spec (the interning key)."""
    return json.dumps(spec, separators=_SEPARATORS)


def plan_skeleton(expr: Expression) -> tuple[str, list[float]]:
    """``(skeleton text, literals)`` of one plan."""
    literals: list[float] = []
    return skeleton_text(_spec(expr, literals)), literals


@lru_cache(maxsize=4096)
def _parse(text: str) -> list:
    return json.loads(text)


def _build(spec: list, literals) -> Expression:
    kind = spec[0]
    if kind == "S":
        return Scan(spec[1])
    if kind == "F":
        child = _build(spec[1], literals)
        preds = tuple(
            Predicate(column, op, int(next(literals)) if tag == "i" else next(literals))
            for column, op, tag in spec[2]
        )
        return Filter(child, preds)
    if kind == "P":
        return Project(_build(spec[1], literals), tuple(spec[2]))
    if kind == "J":
        left = _build(spec[1], literals)
        return Join(left, _build(spec[2], literals), spec[3], spec[4])
    if kind == "A":
        return Aggregate(_build(spec[1], literals), tuple(spec[2]))
    if kind == "U":
        left = _build(spec[1], literals)
        return Union(left, _build(spec[2], literals))
    raise ValueError(f"unknown skeleton node {kind!r}")


def build_plan(text: str, literals: Sequence[float]) -> Expression:
    """Rebuild the plan a skeleton text plus its literals describe."""
    return _build(_parse(text), iter(literals))
