"""Expression evaluation: typing, NULL semantics, functions, rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.sql.expressions import (
    AggregateCall,
    And,
    Arithmetic,
    Binder,
    CaseWhen,
    ColumnRef,
    Comparison,
    FuncCall,
    FunctionRegistry,
    InList,
    Literal,
    Not,
    Or,
    Star,
    combine_conjuncts,
    conjuncts,
    transform,
    walk,
)
from repro.sql.parser import parse_expression
from repro.sql.types import DataType, Schema

SCHEMA = Schema.of(
    ("a", DataType.INT),
    ("b", DataType.DOUBLE),
    ("s", DataType.VARCHAR),
    ("flag", DataType.BOOLEAN),
)


def evaluate(sql: str, row: tuple):
    return run(parse_expression(sql), row)


def run(expr, row: tuple = (), binder: Binder | None = None):
    """``expr`` on one row through the row evaluator."""
    return expr.bind_batch(binder or Binder(SCHEMA))([row])[0]


ROW = (10, 2.5, "hello", True)


class TestArithmetic:
    def test_basics(self):
        assert evaluate("a + 5", ROW) == 15
        assert evaluate("a - b", ROW) == 7.5
        assert evaluate("a * 2", ROW) == 20
        assert evaluate("a % 3", ROW) == 1

    def test_integer_division_truncates_toward_zero(self):
        assert evaluate("7 / 2", ROW) == 3
        assert evaluate("-7 / 2", ROW) == -3
        assert evaluate("7 / -2", ROW) == -3

    def test_float_division(self):
        assert evaluate("7 / 2.0", ROW) == 3.5

    def test_null_propagation(self):
        assert evaluate("a + 1", (None, 0, "", False)) is None

    def test_type_inference(self):
        binder = Binder(SCHEMA)
        assert parse_expression("a + 1").data_type(binder) is DataType.BIGINT
        assert parse_expression("a + b").data_type(binder) is DataType.DOUBLE

    def test_arith_on_string_rejected(self):
        with pytest.raises(PlanError):
            parse_expression("s * 2").data_type(Binder(SCHEMA))


class TestComparisons:
    def test_all_ops(self):
        assert evaluate("a = 10", ROW) is True
        assert evaluate("a <> 10", ROW) is False
        assert evaluate("a < 11", ROW) is True
        assert evaluate("a <= 10", ROW) is True
        assert evaluate("a > 10", ROW) is False
        assert evaluate("a >= 10", ROW) is True

    def test_string_comparison(self):
        assert evaluate("s = 'hello'", ROW) is True

    def test_null_yields_null(self):
        assert evaluate("a = 10", (None, 0, "", False)) is None

    def test_flipped(self):
        original = parse_expression("a < 5")
        flipped = original.flipped()
        assert flipped == Comparison(">", Literal(5), ColumnRef(None, "a"))


class TestKleeneLogic:
    T, F, N = True, False, None

    @pytest.mark.parametrize(
        "left,right,expected",
        [(T, T, T), (T, F, F), (T, N, N), (F, F, F), (F, N, F), (N, N, N)],
    )
    def test_and(self, left, right, expected):
        expr = And((Literal(left), Literal(right)))
        assert run(expr) is expected

    @pytest.mark.parametrize(
        "left,right,expected",
        [(T, T, T), (T, F, T), (T, N, T), (F, F, F), (F, N, N), (N, N, N)],
    )
    def test_or(self, left, right, expected):
        expr = Or((Literal(left), Literal(right)))
        assert run(expr) is expected

    def test_not_null(self):
        assert run(Not(Literal(None))) is None

    @given(st.lists(st.sampled_from([True, False, None]), min_size=1, max_size=6))
    def test_and_matches_kleene_reference(self, values):
        expr = And(tuple(Literal(v) for v in values))
        result = run(expr)
        if False in values:
            assert result is False
        elif None in values:
            assert result is None
        else:
            assert result is True

    @given(st.lists(st.sampled_from([True, False, None]), min_size=1, max_size=6))
    def test_or_matches_kleene_reference(self, values):
        expr = Or(tuple(Literal(v) for v in values))
        result = run(expr)
        if True in values:
            assert result is True
        elif None in values:
            assert result is None
        else:
            assert result is False


NULLABLE = Schema.of(("x", DataType.INT), ("y", DataType.INT), ("p", DataType.BOOLEAN))
_LEAVES = st.one_of(
    st.sampled_from([ColumnRef(None, name) for name in ("x", "y", "p")]),
    st.builds(Literal, st.sampled_from([None, True, False, 0, 1, 2])),
)


def _lazy_nodes(children):
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    whens = st.lists(st.tuples(children, children), min_size=1, max_size=2).map(tuple)
    return st.one_of(
        operands.map(And),
        operands.map(Or),
        st.builds(Not, children),
        st.builds(Comparison, st.sampled_from(["=", "<"]), children, children),
        st.builds(InList, children, operands, st.booleans()),
        st.builds(CaseWhen, whens, st.one_of(st.none(), children)),
        operands.map(lambda args: FuncCall("coalesce", args)),
    )


class TestLazyEvaluation:
    """AND, OR, IN, CASE and COALESCE run an operand only on the rows the
    earlier operands left undecided."""

    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("a <> 0 AND 10 / a = 1", [False, True]),
            ("a = 0 OR 10 / a = 1", [True, True]),
            ("CASE WHEN a = 0 THEN 0 ELSE 10 / a END", [0, 1]),
            ("coalesce(a, 10 / a)", [0, 10]),
        ],
    )
    def test_guarded_operand_skips_decided_rows(self, sql, expected):
        rows = [(0, 0.0, "", False), ROW]
        assert parse_expression(sql).bind_batch(Binder(SCHEMA))(rows) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        expr=st.recursive(_LEAVES, _lazy_nodes, max_leaves=12),
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-2, 2)),
                st.one_of(st.none(), st.integers(-2, 2)),
                st.one_of(st.none(), st.booleans()),
            ),
            max_size=12,
        ),
    )
    def test_partition_matches_row_at_a_time(self, expr, rows):
        fn = expr.bind_batch(Binder(NULLABLE))
        one_by_one = [fn([row])[0] for row in rows]
        # typed, or a mis-routed True would pass for a 1
        assert [(type(v), v) for v in fn(rows)] == [(type(v), v) for v in one_by_one]


class TestPredicates:
    def test_is_null(self):
        assert evaluate("a IS NULL", (None, 0, "", False)) is True
        assert evaluate("a IS NOT NULL", ROW) is True

    def test_in_list(self):
        assert evaluate("a IN (1, 10, 100)", ROW) is True
        assert evaluate("a NOT IN (1, 2)", ROW) is True

    def test_in_with_null_member(self):
        # 10 IN (1, NULL) is NULL (unknown), 10 IN (10, NULL) is TRUE.
        assert evaluate("a IN (1, NULL)", ROW) is None
        assert evaluate("a IN (10, NULL)", ROW) is True

    def test_between(self):
        assert evaluate("a BETWEEN 5 AND 15", ROW) is True
        assert evaluate("a BETWEEN 11 AND 15", ROW) is False
        assert evaluate("a NOT BETWEEN 11 AND 15", ROW) is True
        assert evaluate("a BETWEEN 10 AND 10", ROW) is True  # inclusive

    def test_like(self):
        assert evaluate("s LIKE 'he%'", ROW) is True
        assert evaluate("s LIKE 'h_llo'", ROW) is True
        assert evaluate("s LIKE 'x%'", ROW) is False
        assert evaluate("s NOT LIKE 'x%'", ROW) is True

    def test_like_escapes_regex_chars(self):
        row = (0, 0.0, "a.c", False)
        assert evaluate("s LIKE 'a.c'", row) is True
        assert evaluate("s LIKE 'a_c'", row) is True
        row2 = (0, 0.0, "abc", False)
        assert evaluate("s LIKE 'a.c'", row2) is False


class TestCase:
    def test_case_when(self):
        sql = "CASE WHEN a > 100 THEN 'big' WHEN a > 5 THEN 'mid' ELSE 'small' END"
        assert evaluate(sql, ROW) == "mid"
        assert evaluate(sql, (200, 0.0, "", False)) == "big"
        assert evaluate(sql, (1, 0.0, "", False)) == "small"

    def test_case_without_else_yields_null(self):
        assert evaluate("CASE WHEN a > 100 THEN 1 END", ROW) is None


class TestFunctions:
    def test_builtins(self):
        assert evaluate("upper(s)", ROW) == "HELLO"
        assert evaluate("lower('ABC')", ROW) == "abc"
        assert evaluate("length(s)", ROW) == 5
        assert evaluate("abs(-3)", ROW) == 3
        assert evaluate("concat(s, '!')", ROW) == "hello!"
        assert evaluate("substr(s, 2, 3)", ROW) == "ell"
        assert evaluate("mod(a, 3)", ROW) == 1
        assert evaluate("floor(b)", ROW) == 2
        assert evaluate("ceil(b)", ROW) == 3
        assert evaluate("round(b)", ROW) == 2.0

    def test_null_in_null_out(self):
        assert evaluate("upper(s)", (0, 0.0, None, False)) is None

    def test_coalesce_accepts_nulls(self):
        assert evaluate("coalesce(s, 'dflt')", (0, 0.0, None, False)) == "dflt"
        assert evaluate("coalesce(s, 'dflt')", ROW) == "hello"

    def test_unknown_function(self):
        with pytest.raises(PlanError, match="unknown function"):
            evaluate("nosuch(a)", ROW)

    def test_user_registered_udf(self):
        registry = FunctionRegistry()
        registry.register("double_it", lambda x: x * 2, DataType.BIGINT)
        expr = parse_expression("double_it(a)")
        binder = Binder(SCHEMA, registry)
        assert run(expr, ROW, binder) == 20
        assert expr.data_type(binder) is DataType.BIGINT


class TestAggregates:
    def test_cannot_bind(self):
        with pytest.raises(PlanError):
            AggregateCall("sum", ColumnRef(None, "a")).bind_batch(Binder(SCHEMA))

    def test_types(self):
        binder = Binder(SCHEMA)
        assert AggregateCall("count", Star()).data_type(binder) is DataType.BIGINT
        assert AggregateCall("avg", ColumnRef(None, "a")).data_type(binder) is DataType.DOUBLE
        assert AggregateCall("max", ColumnRef(None, "b")).data_type(binder) is DataType.DOUBLE

    def test_contains_aggregate(self):
        expr = parse_expression("COUNT(*) + 1")
        assert expr.contains_aggregate()
        assert not parse_expression("a + 1").contains_aggregate()


class TestStructural:
    def test_references(self):
        expr = parse_expression("U.age > 3 AND lower(name) = 'x'")
        assert expr.references() == {("U", "age"), (None, "name")}

    def test_equality_and_hash(self):
        a = parse_expression("a + 1 = 2")
        b = parse_expression("a + 1 = 2")
        assert a == b
        assert hash(a) == hash(b)

    def test_conjuncts_flatten(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        parts = conjuncts(expr)
        assert len(parts) == 3
        assert combine_conjuncts(parts) == And(tuple(parts))

    def test_conjuncts_of_none(self):
        assert conjuncts(None) == []
        assert combine_conjuncts([]) is None

    def test_combine_single(self):
        expr = parse_expression("a = 1")
        assert combine_conjuncts([expr]) is expr

    def test_walk_visits_all(self):
        expr = parse_expression("a + b * 2")
        nodes = list(walk(expr))
        assert len(nodes) == 5

    def test_transform_replaces_subtree(self):
        expr = parse_expression("a + b")

        def bump(node):
            if node == ColumnRef(None, "a"):
                return Literal(99)
            return None

        rewritten = transform(expr, bump)
        assert rewritten == Arithmetic("+", Literal(99), ColumnRef(None, "b"))
        # original untouched (frozen dataclasses)
        assert expr.left == ColumnRef(None, "a")

    def test_transform_rebuilds_case(self):
        expr = parse_expression("CASE WHEN a = 1 THEN b ELSE a END")

        def rename(node):
            if node == ColumnRef(None, "a"):
                return ColumnRef(None, "z")
            return None

        rewritten = transform(expr, rename)
        assert ("z" in {r[1] for r in rewritten.references()})
        assert ("a" not in {r[1] for r in rewritten.references()})


class TestSqlRendering:
    @pytest.mark.parametrize(
        "sql",
        [
            "a IS NOT NULL",
            "a IN (1, 2)",
            "s LIKE 'x%'",
            "a BETWEEN 1 AND 2",
            "NOT (a = 1)",
            "upper(s)",
            "CASE WHEN a = 1 THEN 2 ELSE 3 END",
        ],
    )
    def test_roundtrip(self, sql):
        expr = parse_expression(sql)
        assert parse_expression(expr.to_sql()) == expr

    def test_string_escaping(self):
        expr = Literal("it's")
        assert expr.to_sql() == "'it''s'"
        assert parse_expression(expr.to_sql()) == expr
