"""Plan skeletons: (structure text, literals) round-trips to the plan."""

from hypothesis import given, settings

from repro.engine import Filter, Predicate, Scan
from repro.engine.signatures import enumerate_all_signatures, signatures
from repro.engine.skeleton import build_plan, plan_skeleton

from tests.engine.strategies import expressions


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(expressions(max_depth=5))
    def test_rebuilt_plan_equals_original(self, plan):
        text, literals = plan_skeleton(plan)
        rebuilt = build_plan(text, literals)
        assert rebuilt == plan
        assert signatures(rebuilt) == signatures(plan)
        assert list(enumerate_all_signatures(rebuilt)[0]) == list(
            enumerate_all_signatures(plan)[0]
        )

    def test_skeleton_masks_literals(self):
        low = Filter(Scan("fact"), (Predicate("a0", "<=", 1.5),))
        high = Filter(Scan("fact"), (Predicate("a0", "<=", 900.25),))
        assert plan_skeleton(low)[0] == plan_skeleton(high)[0]
        assert plan_skeleton(low)[1] == [1.5]

    def test_int_literals_keep_their_type(self):
        plan = Filter(Scan("fact"), (Predicate("a0", "=", 7),))
        rebuilt = build_plan(*plan_skeleton(plan))
        value = rebuilt.predicates[0].value
        assert value == 7 and type(value) is int
        assert signatures(rebuilt).strict == signatures(plan).strict
