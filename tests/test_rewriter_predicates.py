"""Predicate implication (§5.2's "same or logically stronger")."""

import pytest
from hypothesis import given, strategies as st

from repro.rewriter.predicates import implies
from repro.sql.expressions import Binder
from repro.sql.parser import parse_expression
from repro.sql.types import DataType, Schema

SCHEMA = Schema.of(("a", DataType.INT), ("b", DataType.INT), ("s", DataType.VARCHAR))


def check(stronger: str, weaker: str) -> bool:
    return implies(parse_expression(stronger), parse_expression(weaker))


class TestRangeImplication:
    def test_paper_example(self):
        """The paper's own example: a < 18 is logically stronger than a <= 20."""
        assert check("a < 18", "a <= 20")

    def test_identity(self):
        assert check("a < 5", "a < 5")
        assert check("s = 'USA'", "s = 'USA'")

    @pytest.mark.parametrize(
        "stronger,weaker,expected",
        [
            ("a < 5", "a < 10", True),
            ("a < 5", "a <= 5", True),
            ("a <= 5", "a < 5", False),
            ("a < 5", "a < 5", True),
            ("a <= 4", "a < 5", True),
            ("a < 10", "a < 5", False),
            ("a > 10", "a > 5", True),
            ("a > 5", "a > 10", False),
            ("a >= 10", "a > 9", True),
            ("a > 9", "a >= 9", True),
            ("a >= 9", "a > 9", False),
            ("a = 3", "a < 5", True),
            ("a = 7", "a < 5", False),
            ("a = 3", "a >= 3", True),
            ("a = 3", "a = 3", True),
            ("a = 3", "a = 4", False),
            ("a < 5", "a = 3", False),  # a range never implies an equality
            ("a < 5", "b < 10", False),  # different columns
            ("a < 5", "a > 1", False),  # opposite directions
        ],
    )
    def test_comparison_table(self, stronger, weaker, expected):
        assert check(stronger, weaker) is expected

    def test_flipped_operand_order(self):
        assert check("5 > a", "a <= 20")  # 5 > a  ==  a < 5
        assert check("a < 18", "20 >= a")

    def test_incomparable_types_safe(self):
        assert not check("a < 5", "a < 'x'")


class TestBetweenAndIn:
    def test_between_implies_bounds(self):
        assert check("a BETWEEN 3 AND 7", "a <= 10")
        assert check("a BETWEEN 3 AND 7", "a >= 1")
        assert not check("a BETWEEN 3 AND 7", "a <= 5")

    def test_range_implies_between(self):
        assert not check("a < 5", "a BETWEEN 0 AND 10")  # lower bound unproven
        assert check("a = 5", "a BETWEEN 0 AND 10")

    def test_between_implies_between(self):
        assert check("a BETWEEN 3 AND 7", "a BETWEEN 0 AND 10")
        assert not check("a BETWEEN 3 AND 12", "a BETWEEN 0 AND 10")

    def test_in_subset(self):
        assert check("s IN ('a', 'b')", "s IN ('a', 'b', 'c')")
        assert not check("s IN ('a', 'z')", "s IN ('a', 'b', 'c')")

    def test_equality_implies_in(self):
        assert check("s = 'a'", "s IN ('a', 'b')")
        assert not check("s = 'z'", "s IN ('a', 'b')")

    def test_in_never_implies_equality(self):
        assert not check("s IN ('a', 'b')", "s = 'a'")


class TestConservativeness:
    def test_unknown_shapes_return_false(self):
        assert not check("a + b < 5", "a < 5")
        assert not check("upper(s) = 'X'", "s = 'x'")
        assert not check("a IS NULL", "a < 5")

    @given(
        s_op=st.sampled_from(["<", "<=", ">", ">=", "="]),
        s_val=st.integers(-20, 20),
        w_op=st.sampled_from(["<", "<=", ">", ">=", "="]),
        w_val=st.integers(-20, 20),
    )
    def test_soundness_by_exhaustive_check(self, s_op, s_val, w_op, w_val):
        """If implies() says yes, no integer counterexample may exist."""
        stronger = parse_expression(f"a {s_op} {s_val}")
        weaker = parse_expression(f"a {w_op} {w_val}")
        if not implies(stronger, weaker):
            return
        binder = Binder(Schema.of(("a", DataType.INT)))
        values = range(-40, 41)
        rows = [(value,) for value in values]
        s_truths, w_truths = (e.bind_batch(binder)(rows) for e in (stronger, weaker))
        for value, s_truth, w_truth in zip(values, s_truths, w_truths):
            if s_truth is True:
                assert w_truth is True, (
                    f"{stronger.to_sql()} 'implies' {weaker.to_sql()} "
                    f"but a={value} is a counterexample"
                )
