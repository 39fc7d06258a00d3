"""Types, schemas, and byte estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.sql.types import Column, DataType, Schema, estimate_value_bytes
from tests.byte_oracle import estimate_row_bytes, estimate_rows_bytes


class TestDataType:
    @pytest.mark.parametrize(
        "dtype,text,expected",
        [
            (DataType.INT, "42", 42),
            (DataType.BIGINT, "-7", -7),
            (DataType.DOUBLE, "2.5", 2.5),
            (DataType.VARCHAR, "hello", "hello"),
            (DataType.BOOLEAN, "true", True),
            (DataType.BOOLEAN, "FALSE", False),
            (DataType.BOOLEAN, "1", True),
        ],
    )
    def test_parse(self, dtype, text, expected):
        assert dtype.parse(text) == expected

    def test_empty_is_null(self):
        for dtype in DataType:
            assert dtype.parse("") is None
            assert dtype.parse(r"\N") is None

    def test_render_null_is_empty(self):
        for dtype in DataType:
            assert dtype.render(None) == ""

    @given(value=st.integers(-10**12, 10**12))
    def test_int_roundtrip(self, value):
        assert DataType.BIGINT.parse(DataType.BIGINT.render(value)) == value

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_double_roundtrip(self, value):
        assert DataType.DOUBLE.parse(DataType.DOUBLE.render(value)) == value

    @given(value=st.booleans())
    def test_boolean_roundtrip(self, value):
        assert DataType.BOOLEAN.parse(DataType.BOOLEAN.render(value)) is value

    FIELD = st.one_of(
        st.sampled_from(
            ["", r"\N", " 7", "1_0", "1e3", "nan", "-inf", "+5", "0x1f", "1.", "٣", " t ", "Yes"]
        ),
        st.integers().map(str),
        st.floats().map(repr),
        st.text(max_size=5),
    )

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from(list(DataType)), texts=st.lists(FIELD, max_size=8))
    def test_parse_column_is_parse_per_value(self, dtype, texts):
        """Same values (NULLs, NaNs and exact types included), and the same
        exception type on the same inputs; the scan hands in tuples."""
        try:
            expected = [dtype.parse(t) for t in texts]
        except Exception as exc:
            with pytest.raises(type(exc)):
                dtype.parse_column(tuple(texts))
            return
        assert repr(dtype.parse_column(tuple(texts))) == repr(expected)
        assert repr(dtype.parse_column(texts)) == repr(expected)

    def test_is_numeric(self):
        assert DataType.INT.is_numeric
        assert DataType.DOUBLE.is_numeric
        assert not DataType.VARCHAR.is_numeric
        assert not DataType.BOOLEAN.is_numeric


class TestSchema:
    SCHEMA = Schema(
        [
            Column("id", DataType.BIGINT, "u"),
            Column("name", DataType.VARCHAR, "u"),
            Column("id", DataType.BIGINT, "c"),
        ]
    )

    def test_qualified_resolution(self):
        assert self.SCHEMA.resolve("u", "id") == 0
        assert self.SCHEMA.resolve("c", "id") == 2
        assert self.SCHEMA.resolve("U", "ID") == 0  # case-insensitive

    def test_unqualified_unique(self):
        assert self.SCHEMA.resolve(None, "name") == 1

    def test_unqualified_ambiguous(self):
        with pytest.raises(PlanError, match="ambiguous"):
            self.SCHEMA.resolve(None, "id")

    def test_missing_lists_candidates(self):
        with pytest.raises(PlanError, match="available"):
            self.SCHEMA.resolve(None, "ghost")

    def test_maybe_resolve(self):
        assert self.SCHEMA.maybe_resolve(None, "ghost") is None
        assert self.SCHEMA.maybe_resolve("u", "name") == 1
        with pytest.raises(PlanError):
            self.SCHEMA.maybe_resolve(None, "id")  # ambiguity still raises

    def test_with_qualifier_and_concat(self):
        left = Schema.of(("a", DataType.INT)).with_qualifier("l")
        right = Schema.of(("b", DataType.INT)).with_qualifier("r")
        joined = left.concat(right)
        assert joined.names == ["a", "b"]
        assert joined.resolve("r", "b") == 1

    def test_equality_and_hash(self):
        a = Schema.of(("x", DataType.INT))
        b = Schema.of(("x", DataType.INT))
        assert a == b and hash(a) == hash(b)
        assert a != Schema.of(("x", DataType.DOUBLE))


class TestByteEstimation:
    def test_value_sizes(self):
        assert estimate_value_bytes(None) == 1
        assert estimate_value_bytes(True) == 1
        assert estimate_value_bytes(7) == 8
        assert estimate_value_bytes(7.5) == 8
        assert estimate_value_bytes("abc") == 7

    def test_row_size_additive(self):
        row = (1, "ab", None)
        assert estimate_row_bytes(row) == 2 + 8 + 6 + 1

    class IntSubclass(int):
        pass

    #: one strategy per column: the wholesale-sized kinds, and every value
    #: that must stay on the per-value ladder
    COLUMN_KINDS = [
        st.integers(),
        st.floats(),
        st.one_of(st.integers(), st.floats()),
        st.text(max_size=9),
        st.one_of(st.none(), st.text(max_size=9)),
        st.one_of(st.booleans(), st.integers()),
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.binary(max_size=9),
            st.integers().map(IntSubclass),
            st.floats(allow_nan=False).map(np.float64),
            st.integers(-9, 9).map(np.int64),
            st.just((1, 2)),
        ),
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.one_of(
            st.lists(st.sampled_from(COLUMN_KINDS), max_size=5).flatmap(
                lambda kinds: st.lists(st.tuples(*kinds), max_size=12)
            ),
            # ragged
            st.lists(st.lists(st.one_of(*COLUMN_KINDS), max_size=4).map(tuple), max_size=8),
        )
    )
    def test_rows_bytes_is_the_sum_of_row_bytes(self, rows):
        assert estimate_rows_bytes(rows) == sum(estimate_row_bytes(r) for r in rows)

    @given(
        row=st.tuples(
            st.integers(), st.text(max_size=30), st.one_of(st.none(), st.floats(allow_nan=False))
        )
    )
    def test_row_size_positive_and_monotone(self, row):
        base = estimate_row_bytes(row)
        assert base > 0
        assert estimate_row_bytes(row + ("extra",)) > base
