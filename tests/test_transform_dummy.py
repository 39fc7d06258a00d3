"""Dummy coding (§2.2) and the effect/orthogonal contrast codings."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.common.errors import ExecutionError
from repro.sql.engine import BigSQL
from repro.sql.types import DataType, Schema
from repro.transform import (
    DummyCodeUDF,
    EffectCodeUDF,
    LocalDistinctUDF,
    OrthogonalCodeUDF,
    RecodeMap,
    RecodeUDF,
    TransformService,
)
from repro.transform.dummy import indicator_column_name
from repro.transform.effect import effect_row, orthogonal_contrast_matrix


@pytest.fixture()
def coded_engine(engine):
    transforms = TransformService()
    engine.register_table_udf(LocalDistinctUDF())
    engine.register_table_udf(RecodeUDF(transforms))
    engine.register_table_udf(DummyCodeUDF(transforms))
    engine.register_table_udf(EffectCodeUDF(transforms))
    engine.register_table_udf(OrthogonalCodeUDF(transforms))
    transforms.register(
        "m",
        RecodeMap.from_distinct_rows(
            [("gender", "F"), ("gender", "M"), ("size", "L"), ("size", "M"), ("size", "S")]
        ),
    )
    return engine, transforms


class TestDummyCoding:
    def test_paper_figure1c(self, coded_engine):
        """Figure 1(c): recoded gender expands to (female, male) indicators."""
        engine, _ = coded_engine
        engine.create_table(
            "t",
            Schema.of(("age", DataType.INT), ("gender", DataType.INT), ("amount", DataType.DOUBLE)),
            [(57, 1, 142.65), (40, 2, 299.99), (35, 1, 18.00)],
        )
        rows = engine.query_rows(
            "SELECT * FROM TABLE(dummy_code(t, 'm', 'gender')) AS d ORDER BY age DESC"
        )
        assert rows == [
            (57, 1, 0, 142.65),
            (40, 0, 1, 299.99),
            (35, 1, 0, 18.00),
        ]

    def test_output_column_names(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("g", Schema.of(("gender", DataType.INT)), [(1,)])
        plan = engine.plan("SELECT * FROM TABLE(dummy_code(g, 'm', 'gender')) AS d")
        assert plan.schema.names == ["gender_F", "gender_M"]

    def test_three_level_expansion(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("s", Schema.of(("size", DataType.INT)), [(1,), (2,), (3,)])
        rows = engine.query_rows("SELECT * FROM TABLE(dummy_code(s, 'm', 'size')) AS d")
        assert sorted(rows) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_null_becomes_all_zero(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("n", Schema.of(("gender", DataType.INT)), [(None,)])
        rows = engine.query_rows("SELECT * FROM TABLE(dummy_code(n, 'm', 'gender')) AS d")
        assert rows == [(0, 0)]

    def test_unrecoded_value_rejected(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("bad", Schema.of(("gender", DataType.INT)), [(7,)])
        with pytest.raises(ExecutionError, match="recode the column first"):
            engine.query_rows("SELECT * FROM TABLE(dummy_code(bad, 'm', 'gender')) AS d")

    def test_indicator_name_mangling(self):
        assert indicator_column_name("ch", "web site") == "ch_web_site"
        assert indicator_column_name("c", "a-b") == "c_a_b"

    @settings(max_examples=25, deadline=None)
    @given(codes=st.lists(st.integers(1, 4), min_size=1, max_size=30))
    def test_exactly_one_hot(self, codes):
        """Property: each output row has exactly one 1 among K indicators."""
        transforms = TransformService()
        transforms.register(
            "k4",
            RecodeMap.from_distinct_rows([("c", v) for v in ["p", "q", "r", "s"]]),
        )
        engine = BigSQL(make_paper_cluster())
        engine.register_table_udf(DummyCodeUDF(transforms))
        schema = Schema.of(("i", DataType.INT), ("c", DataType.INT))
        engine.create_table("t", schema, list(enumerate(codes)))
        out = engine.query_rows("SELECT * FROM TABLE(dummy_code(t, 'k4', 'c')) AS d ORDER BY i")
        assert [row[0] for row in out] == list(range(len(codes)))
        for code, (_i, *row) in zip(codes, out):
            assert sum(row) == 1
            assert row[code - 1] == 1


class TestEffectCoding:
    def test_reference_level_all_minus_one(self):
        assert effect_row(1, 3) == [1, 0]
        assert effect_row(2, 3) == [0, 1]
        assert effect_row(3, 3) == [-1, -1]

    def test_through_sql(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("s", Schema.of(("size", DataType.INT)), [(1,), (2,), (3,)])
        rows = engine.query_rows(
            "SELECT * FROM TABLE(effect_code(s, 'm', 'size')) AS e"
        )
        assert sorted(rows) == [(-1, -1), (0, 1), (1, 0)]

    def test_null_propagates(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("n", Schema.of(("size", DataType.INT)), [(None,)])
        rows = engine.query_rows("SELECT * FROM TABLE(effect_code(n, 'm', 'size')) AS e")
        assert rows == [(None, None)]

    def test_columns_sum_to_zero_over_levels(self):
        """Effect coding's defining property: each contrast sums to zero
        across the K levels."""
        for k in (2, 3, 5, 8):
            matrix = np.array([effect_row(code, k) for code in range(1, k + 1)])
            assert np.all(matrix.sum(axis=0) == 0)


class TestOrthogonalCoding:
    @pytest.mark.parametrize("k", [2, 3, 4, 6, 9])
    def test_contrast_matrix_properties(self, k):
        matrix = orthogonal_contrast_matrix(k)
        assert matrix.shape == (k, k - 1)
        # Columns orthogonal to the constant vector (zero-sum)...
        assert np.allclose(matrix.sum(axis=0), 0.0, atol=1e-10)
        # ...mutually orthonormal...
        gram = matrix.T @ matrix
        assert np.allclose(gram, np.eye(k - 1), atol=1e-10)
        # ...and the linear contrast increases with the level.
        assert matrix[-1, 0] > matrix[0, 0]

    def test_k2_matches_effect_scaled(self):
        matrix = orthogonal_contrast_matrix(2)
        assert np.allclose(matrix[:, 0], [-(2 ** -0.5), 2 ** -0.5])

    def test_needs_two_levels(self):
        with pytest.raises(ExecutionError):
            orthogonal_contrast_matrix(1)

    def test_through_sql(self, coded_engine):
        engine, _ = coded_engine
        engine.create_table("s", Schema.of(("size", DataType.INT)), [(1,), (2,), (3,)])
        rows = engine.query_rows(
            "SELECT * FROM TABLE(orthogonal_code(s, 'm', 'size')) AS o"
        )
        matrix = orthogonal_contrast_matrix(3)
        expected = {tuple(np.round(matrix[c - 1], 10)) for c in (1, 2, 3)}
        got = {tuple(np.round(row, 10)) for row in rows}
        assert got == expected


class TestContrastCodingDifferential:
    """``effect_code`` / ``orthogonal_code`` through SQL against the row
    formulas they are built from: a column with NULLs and every level
    present, row by row, and the coding's own error for a code out of range."""

    @staticmethod
    def _engine(k: int) -> BigSQL:
        transforms = TransformService()
        transforms.register("h", RecodeMap.from_distinct_rows([("c", f"v{i}") for i in range(k)]))
        engine = BigSQL(make_paper_cluster())
        engine.register_table_udf(EffectCodeUDF(transforms))
        engine.register_table_udf(OrthogonalCodeUDF(transforms))
        return engine

    @staticmethod
    def _formula(coding: str, code: int, k: int) -> list:
        if coding == "effect":
            return effect_row(code, k)
        return [float(x) for x in orthogonal_contrast_matrix(k)[code - 1]]

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("coding", ["effect", "orthogonal"])
    def test_rows_equal_the_row_formula(self, coding, k):
        engine = self._engine(k)
        codes = [None if i % 4 == 3 else i % k + 1 for i in range(3 * k + 4)]
        schema = Schema.of(("i", DataType.INT), ("c", DataType.INT))
        engine.create_table("t", schema, list(enumerate(codes)))
        sql = f"SELECT * FROM TABLE({coding}_code(t, 'h', 'c')) AS e ORDER BY i"
        if coding == "orthogonal" and k < 2:
            with pytest.raises(ExecutionError, match="needs >= 2 levels"):
                engine.query_rows(sql)
            return
        expected = [
            (i, *([None] * (k - 1) if code is None else self._formula(coding, code, k)))
            for i, code in enumerate(codes)
        ]
        rows = engine.query_rows(sql)
        assert rows == expected
        assert [[type(v) for v in row] for row in rows] == [
            [type(v) for v in row] for row in expected
        ]

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("coding", ["effect", "orthogonal"])
    @pytest.mark.parametrize("bad", ["zero", "above"])
    def test_out_of_range_raises_the_row_formula_error(self, coding, k, bad):
        engine = self._engine(k)
        code = 0 if bad == "zero" else k + 1
        schema = Schema.of(("i", DataType.INT), ("c", DataType.INT))
        engine.create_table("t", schema, [(0, None), (1, code), (2, 1)])
        if coding == "orthogonal" and k < 2:
            message = "orthogonal coding needs >= 2 levels"
        else:
            message = f"{coding} coding expects 1..{k}, got {code}"
        with pytest.raises(ExecutionError, match=f"^{re.escape(message)}$"):
            engine.query_rows(f"SELECT * FROM TABLE({coding}_code(t, 'h', 'c')) AS e")
