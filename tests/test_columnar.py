"""Columnar format: roundtrip, SQL scans, and §2.1's dictionary argument."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.format import (
    ColumnarInputFormat,
    decode_partition,
    encode_partition,
    read_partition_dictionary,
    write_table,
)
from repro.common.errors import CatalogError, ExecutionError
from repro.iofmt.inputformat import JobConf
from repro.sql.types import DataType, Schema
from repro.transform.recode import RecodeMap

SCHEMA = Schema.of(
    ("age", DataType.INT),
    ("gender", DataType.VARCHAR),
    ("amount", DataType.DOUBLE),
    ("abandoned", DataType.VARCHAR),
)

ROWS = [
    (57, "F", 142.65, "Yes"),
    (40, "M", 299.99, "Yes"),
    (35, "F", 18.0, "No"),
    (None, None, None, None),
]


class TestEncodeDecode:
    def test_roundtrip(self):
        names, rows = decode_partition(encode_partition(SCHEMA, ROWS))
        assert names == ["age", "gender", "amount", "abandoned"]
        assert rows == ROWS

    def test_empty_partition(self):
        names, rows = decode_partition(encode_partition(SCHEMA, []))
        assert rows == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ExecutionError, match="magic"):
            decode_partition(b'{"magic": "NOPE", "rows": 0, "columns": []}')

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-100, 100)),
                st.one_of(st.none(), st.sampled_from(["a", "bb", "ccc"])),
                st.one_of(st.none(), st.floats(-10, 10)),
                st.one_of(st.none(), st.sampled_from(["Yes", "No"])),
            ),
            max_size=40,
        )
    )
    def test_roundtrip_property(self, rows):
        _names, decoded = decode_partition(encode_partition(SCHEMA, rows))
        assert decoded == rows

    def test_dictionary_compression_shrinks_repetitive_strings(self):
        repetitive = [(i, "verylongcategoryvalue", 1.0, "No") for i in range(500)]
        schema = SCHEMA
        columnar_bytes = len(encode_partition(schema, repetitive))
        text_bytes = sum(
            len(f"{i},verylongcategoryvalue,1.0,No\n") for i in range(500)
        )
        assert columnar_bytes < 0.6 * text_bytes


class TestPaper21DictionaryArgument:
    """§2.1's three reasons dictionary codes cannot serve as recode values,
    demonstrated on real files."""

    def make_partitioned_files(self, dfs):
        # Partition 0 sees M first; partition 1 sees F first.
        partitions = [
            [(40, "M", 1.0, "Yes"), (57, "F", 2.0, "Yes")],
            [(35, "F", 3.0, "No"), (22, "M", 4.0, "No")],
        ]
        write_table(dfs, "/col/demo", SCHEMA, partitions)
        return [f"/col/demo/part-{i:05d}.rcol" for i in range(2)]

    def test_local_dictionaries_disagree_across_partitions(self, dfs):
        """Reason 2: 'we cannot directly use the local encoded integers for
        the global recoding' — the same value has different codes in
        different partitions."""
        files = self.make_partitioned_files(dfs)
        dict0 = read_partition_dictionary(dfs, files[0], "gender")
        dict1 = read_partition_dictionary(dfs, files[1], "gender")
        assert dict0 == ["M", "F"]  # M coded 0 here...
        assert dict1 == ["F", "M"]  # ...but 1 here

    def test_codes_not_consecutive_from_one(self, dfs):
        """Reason 3: SystemML-style consumers need consecutive integers
        starting from 1; file-local codes are 0-based."""
        files = self.make_partitioned_files(dfs)
        dict0 = read_partition_dictionary(dfs, files[0], "gender")
        local_codes = {value: code for code, value in enumerate(dict0)}
        assert 0 in local_codes.values()  # 0-based: violates the contract
        global_map = RecodeMap.from_distinct_rows(
            [("gender", "M"), ("gender", "F")]
        )
        assert sorted(global_map.mapping("gender").values()) == [1, 2]

    def test_filtered_recode_differs_from_full_dictionary(self, dfs):
        """Reason 4: 'the recoding needs to be done on filtered data' — a
        filter shrinks the value set below what any whole-table dictionary
        says."""
        partitions = [
            [(40, "M", 1.0, "Yes"), (57, "F", 2.0, "Yes"), (30, "X", 0.5, "No")]
        ]
        write_table(dfs, "/col/filtered", SCHEMA, partitions)
        full_dict = read_partition_dictionary(
            dfs, "/col/filtered/part-00000.rcol", "gender"
        )
        assert set(full_dict) == {"M", "F", "X"}
        # the query filters to amount >= 1.0: only M and F survive
        filtered_map = RecodeMap.from_distinct_rows(
            [("gender", "M"), ("gender", "F")]
        )
        assert filtered_map.cardinality("gender") == 2 != len(full_dict)

    def test_non_dict_column_rejected(self, dfs):
        self.make_partitioned_files(dfs)
        with pytest.raises(ExecutionError, match="not dictionary-encoded"):
            read_partition_dictionary(dfs, "/col/demo/part-00000.rcol", "age")


class TestSqlOverColumnar:
    def test_scan_matches_csv_scan(self, engine, dfs):
        rows = [(i, "FM"[i % 2], float(i) * 1.5, ["Yes", "No"][i % 2]) for i in range(200)]
        # CSV copy
        text = "\n".join(
            f"{a},{g},{m},{ab}" for a, g, m, ab in rows
        ) + "\n"
        dfs.write_text("/t/csv/part-0", text)
        engine.register_external_table("t_csv", SCHEMA, "/t/csv")
        # columnar copy, split over 3 part files
        thirds = [rows[0::3], rows[1::3], rows[2::3]]
        write_table(dfs, "/t/col", SCHEMA, thirds)
        engine.register_external_table("t_col", SCHEMA, "/t/col", format="columnar")

        sql = "SELECT age, gender, amount, abandoned FROM {} WHERE amount > 30"
        assert sorted(engine.query_rows(sql.format("t_col"))) == sorted(
            engine.query_rows(sql.format("t_csv"))
        )

    def test_columnar_scan_costs_fewer_bytes(self, engine, dfs):
        rows = [(i, "category_" + "FM"[i % 2], float(i), "Yes") for i in range(400)]
        text = "\n".join(f"{a},{g},{m},{ab}" for a, g, m, ab in rows) + "\n"
        dfs.write_text("/sz/csv/part-0", text)
        write_table(dfs, "/sz/col", SCHEMA, [rows])
        engine.register_external_table("sz_csv", SCHEMA, "/sz/csv")
        engine.register_external_table("sz_col", SCHEMA, "/sz/col", format="columnar")
        ledger = engine.cluster.ledger
        before = ledger.get("sql.scan")
        engine.query_rows("SELECT COUNT(*) FROM sz_csv")
        csv_scan = ledger.get("sql.scan") - before
        before = ledger.get("sql.scan")
        engine.query_rows("SELECT COUNT(*) FROM sz_col")
        col_scan = ledger.get("sql.scan") - before
        assert col_scan < csv_scan

    def test_transform_pipeline_over_columnar(self, deployment):
        """The whole In-SQL transformation works identically over a
        columnar warehouse table."""
        rows = [
            (30 + i % 40, "FM"[i % 2], float(i), ["Yes", "No"][(i // 2) % 2])
            for i in range(120)
        ]
        write_table(deployment.dfs, "/wh/carts_col", SCHEMA, [rows[0::2], rows[1::2]])
        deployment.engine.register_external_table(
            "carts_col", SCHEMA, "/wh/carts_col", format="columnar"
        )
        from repro.transform.spec import TransformSpec

        spec = TransformSpec(recode=("gender", "abandoned"), dummy=("gender",), label="abandoned")
        result = deployment.pipeline.run_insql_stream(
            "SELECT age, gender, amount, abandoned FROM carts_col", spec, "noop"
        )
        assert result.ml_result.dataset.count() == 120
        labels = {lp.label for lp in result.ml_result.dataset.collect()}
        assert labels == {0.0, 1.0}

    def test_columnar_plane_scan_decodes_only_the_kept_columns(self, cluster, dfs, monkeypatch):
        """One vector per kept column per part file — none for a pruned one —
        and the row-count corruption check runs on the first kept column."""
        from repro.columnar.batch import ColumnVector
        from repro.sql.engine import BigSQL

        rows = [(i, "FM"[i % 2], float(i), ["Yes", "No"][i % 2]) for i in range(40)]
        write_table(dfs, "/pr/col", SCHEMA, [rows[i::4] for i in range(4)])  # one per slot
        engine = BigSQL(cluster, dfs)
        engine.register_external_table("pr", SCHEMA, "/pr/col", format="columnar")
        built = []
        for name in ("from_values", "from_dict_codes"):
            original = getattr(ColumnVector, name)

            def counted(*args, _original=original, _name=name):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(ColumnVector, name, counted)
        result = engine.query_rows("SELECT gender, amount FROM pr")
        assert sorted(result) == sorted((g, m) for _a, g, m, _ab in rows)
        assert sorted(built) == ["from_dict_codes"] * 4 + ["from_values"] * 4
        assert engine.cluster.ledger.get("columnar.fallback") == 0

        document = json.loads(dfs.read_bytes("/pr/col/part-00000.rcol"))
        document["rows"] += 1
        dfs.delete("/pr/col/part-00000.rcol")
        dfs.write_bytes("/pr/col/part-00000.rcol", json.dumps(document).encode("utf-8"))
        with pytest.raises(ExecutionError, match="header says 11 rows, decoded 10"):
            engine.query_rows("SELECT amount FROM pr")

    def test_unknown_format_rejected(self, engine):
        with pytest.raises(CatalogError, match="unknown external format"):
            engine.register_external_table("x", SCHEMA, "/p", format="orc")

    def test_input_format_splits_per_file(self, dfs):
        write_table(dfs, "/split/demo", SCHEMA, [ROWS[:2], ROWS[2:], []])
        conf = JobConf({"input.path": "/split/demo"}, dfs=dfs)
        splits = ColumnarInputFormat().get_splits(conf, 99)
        assert len(splits) == 3
        fmt = ColumnarInputFormat()
        rows = []
        for split in splits:
            with fmt.create_record_reader(split, conf) as reader:
                rows.extend(reader)
        assert sorted(map(repr, rows)) == sorted(map(repr, ROWS))
