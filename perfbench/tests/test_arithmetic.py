"""The benchmark's arithmetic: span self times, closing the books, percentiles.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import (  # noqa: E402
    PERCENTILE_LADDER,
    Tracer,
    percentile,
    span_rollup,
    tail_percentile,
    unattributed,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _nested_run(tracer: Tracer, clock: FakeClock):
    """outer(1s own) -> middle(2s own) -> inner(3s), then inner again (4s)."""

    def inner(seconds):
        clock.advance(seconds)

    def middle():
        clock.advance(2.0)
        traced_inner(3.0)

    def outer():
        clock.advance(1.0)
        traced_middle()
        traced_inner(4.0)

    traced_inner = tracer.wrap(inner, "inner")
    traced_middle = tracer.wrap(middle, "middle")
    tracer.wrap(outer, "outer")()


def test_nested_spans_are_never_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock)
    _nested_run(tracer, clock)
    rollup = tracer.rollup()
    assert rollup["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 1.0}
    assert rollup["middle"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0}
    assert rollup["inner"] == {"calls": 2, "total_s": 7.0, "self_s": 7.0}
    assert sum(entry["self_s"] for entry in rollup.values()) == clock.now


def test_a_span_nested_in_itself_counts_its_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(recurse, "recurse")
    traced(3)
    rollup = tracer.rollup()
    assert rollup["recurse"]["calls"] == 4
    assert rollup["recurse"]["self_s"] == pytest.approx(4.0)
    assert clock.now == 4.0


def test_self_times_plus_unattributed_sum_to_the_wall():
    clock = FakeClock()
    tracer = Tracer(clock)
    start = clock()
    clock.advance(0.5)  # before any span
    _nested_run(tracer, clock)
    clock.advance(0.25)  # between spans
    tracer.wrap(lambda: clock.advance(2.0), "later")()
    clock.advance(0.125)  # after the last span
    wall = clock() - start
    rollup = tracer.rollup()
    rest = unattributed(wall, rollup)
    assert rest == pytest.approx(0.875)
    assert sum(e["self_s"] for e in rollup.values()) + rest == pytest.approx(wall)


def test_rollup_from_columns_matches_the_recorder():
    clock = FakeClock()
    tracer = Tracer(clock)
    _nested_run(tracer, clock)
    dumped = tracer.to_json()
    assert span_rollup(
        dumped["names"], dumped["name"], dumped["start"], dumped["end"],
        dumped["parent"],
    ) == tracer.rollup()


def test_an_exception_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.innermost() is None
    assert tracer.rollup()["boom"]["self_s"] == 1.0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(list(range(19))) is None
    q, value, n = tail_percentile(list(range(1, 21)))
    assert (q, value, n) == (50.0, 10, 20)
    q, value, n = tail_percentile(list(range(1, 101)))
    assert (q, value, n) == (90.0, 90, 100)
    q, value, n = tail_percentile(list(range(1, 1001)))
    assert (q, value, n) == (99.0, 990, 1000)
    q, value, n = tail_percentile(list(range(1, 10_001)))
    assert (q, value, n) == (99.9, 9990, 10_000)


@pytest.mark.parametrize("n", [20, 37, 100, 999, 1000, 4321, 10_000])
def test_tail_percentile_is_the_highest_that_qualifies(n):
    values = list(range(n))
    q, value, count = tail_percentile(values)
    assert count == n
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10
    for p in (p for p in PERCENTILE_LADDER if p > q):
        assert sum(1 for v in values if v > percentile(values, p)) < 10


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert percentile([], 50) != percentile([], 50)  # NaN
