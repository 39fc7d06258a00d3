"""The column kernels on both sides of the DFS hand-off.

* ML ingest: every ``labeled_csv`` / ``vector_csv`` job builds ``(X, y)``
  through ``batch_to_xy`` — from a DFS text split cut by the SQL scan's byte
  kernel, a pivoted ``R`` frame block, or a ``C`` frame.  The oracle is the
  per-field ``float()`` the row parser applied.
* The result writer renders a column at a time; the oracle is
  ``DataType.render`` per value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import make_deployment
from repro.cluster.cluster import make_paper_cluster
from repro.columnar.batch import ColumnBatch
from repro.common.errors import IngestError, MLError, TransferError
from repro.hdfs.filesystem import DistributedFileSystem
from repro.integration.pipeline import render_csv
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import CsvInputFormat, FileSplit, LineRecordReader
from repro.ml.algorithms import LinearRegression, LogisticRegressionWithSGD, SVMWithSGD
from repro.ml.dataset import ArrayDataset
from repro.ml.job import MLJob
from repro.ml.system import MLSystem
from repro.sql.types import DataType, Schema
from repro.transform.spec import TransformSpec
from repro.workloads import generate_retail

PATH = "/ml/in.csv"


class CutAt(CsvInputFormat):
    """The CSV format with splits at chosen byte offsets."""

    def __init__(self, cuts):
        self._cuts = cuts

    def get_splits(self, conf, num_splits):
        length = conf.require_object("dfs").status(PATH).length
        bounds = sorted({0, length} | {cut for cut in self._cuts if 0 < cut < length})
        return [FileSplit(PATH, a, b - a) for a, b in zip(bounds, bounds[1:])]


def ingest(raw: bytes, props: dict, cuts=()) -> tuple:
    cluster = make_paper_cluster()
    dfs = DistributedFileSystem(cluster, block_size=64)
    dfs.write_bytes(PATH, raw)
    conf = JobConf(dict(props, **{"input.path": PATH}), dfs=dfs)
    fmt = CutAt(cuts)
    dataset, _stats = MLJob(
        cluster=cluster,
        input_format=fmt,
        conf=conf,
        num_workers=4,
        batch_parser=MLSystem._batch_parser_from_conf(conf),
    ).ingest()
    return dataset, dfs, fmt.get_splits(conf, 4)


def oracle(dfs, split, delimiter, label_index, label_offset):
    """What the per-record parser built: float() per field, label picked out."""
    with LineRecordReader(dfs, split) as reader:
        records = [[float(v) for v in line.split(delimiter)] for line in reader if line]
    if not records:
        return None
    if label_index is None:
        return np.array(records, dtype=float), None
    at = label_index % len(records[0])
    X = np.array([r[:at] + r[at + 1:] for r in records], dtype=float)
    y = np.array([r[at] - label_offset for r in records], dtype=float)
    return X, y


@pytest.mark.parametrize(
    "train",
    [
        SVMWithSGD.train,
        LogisticRegressionWithSGD.train,
        LinearRegression.train_sgd,
        LinearRegression.train,
    ],
    ids=["svm", "logistic", "linreg_sgd", "linreg"],
)
def test_splits_of_different_widths_are_refused_by_every_trainer(train):
    """A CSV split takes its width from its own first record, so two splits
    can disagree; every linear trainer refuses them with a typed error that
    names the widths."""
    raw = b"1,2,0\n3,4,1\n5,6,7,1\n8,9,1,0\n"
    props = {"label.index": -1, "label.offset": 0.0}
    dataset, _dfs, _splits = ingest(raw, props, cuts=[raw.index(b"5,6") - 1])
    assert [X.shape[1] for X, _y in dataset.partition_arrays()] == [2, 3]
    with pytest.raises(MLError, match=r"widths \[2, 3\]"):
        train(dataset)


FIELDS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(2**53 - 5, 2**64).map(str),  # beyond float64's exact integers
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.decimals(-10**4, 10**4, places=4, allow_nan=False).map(str),  # "-0.0000", "12.5000"
    st.sampled_from(["-0.0", "0", "-0", "1e3", "2.5E-1", "-7e-310", "inf", "-inf", "nan",
                     "007", "5.", ".5", "-.5", "123456789012345", "1234567890123456"]),
)


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 4))
    delimiter = draw(st.sampled_from([",", "\t", "||"]))  # "||": the text cut
    records = draw(st.lists(st.lists(FIELDS, min_size=width, max_size=width), max_size=25))
    lines = [delimiter.join(record) for record in records]
    for at in draw(st.lists(st.integers(0, 30), max_size=3)):  # blank lines
        lines.insert(at % (len(lines) + 1), "")
    raw = "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n"]))
    cuts = draw(st.lists(st.integers(1, max(len(raw), 1)), max_size=4))
    label = draw(st.one_of(st.none(), st.integers(-width, width - 1)))
    return raw, delimiter, cuts, label, draw(st.sampled_from([0.0, 1.0]))


@settings(max_examples=150, deadline=None)
@given(csv_files())
def test_dfs_ingest_is_float_of_every_field_bit_for_bit(case):
    raw, delimiter, cuts, label, offset = case
    props = {"csv.delimiter": delimiter}
    if label is None:
        props["record.format"] = "vector_csv"
    else:
        props.update({"label.index": label, "label.offset": offset})
    dataset, dfs, splits = ingest(raw, props, cuts)
    assert isinstance(dataset, ArrayDataset)
    assert dataset.num_partitions == max(len(splits), 1)  # one partition per split
    expected = [oracle(dfs, split, delimiter, label, offset) for split in splits]
    got = dataset.partition_arrays()  # in split order, empty ones skipped
    expected = [pair for pair in expected if pair is not None]
    assert len(got) == len(expected)
    for (X, y), (eX, ey) in zip(got, expected):
        assert X.shape == eX.shape and X.tobytes() == eX.tobytes()
        assert (y is None) == (ey is None)
        if y is not None:
            assert y.tobytes() == ey.tobytes()


def test_every_labeled_ingest_is_an_array_dataset_of_the_same_rows():
    """DFS text, ``R`` frames and broker records all reach the trainer as
    ``batch_to_xy`` arrays holding the same training rows."""
    dep = make_deployment()
    wl = generate_retail(dep.engine, dep.dfs, num_users=60, num_carts=400)
    pipeline = dep.pipeline
    results = [
        pipeline.run_insql(wl.prep_sql, wl.spec, "noop"),
        pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop"),
        pipeline.run_insql_broker(wl.prep_sql, wl.spec, "noop"),
    ]
    rows = []
    for result in results:
        assert isinstance(result.ml_result.dataset, ArrayDataset)
        X, y = result.ml_result.dataset.to_arrays()
        table = np.column_stack([X, y])
        rows.append(table[np.lexsort(table.T[::-1])])
    assert len(rows[0]) > 0
    for other in rows[1:]:
        assert other.tobytes() == rows[0].tobytes()


def test_ragged_dfs_record_names_the_split():
    raw = b"1,2,3\n" * 40 + b"4,5\n"
    with pytest.raises(IngestError) as raised:
        ingest(raw, {}, cuts=[120])
    assert str(raised.value) == (
        "ingest failed for splits [1]: split 1: expected 3 fields, got 2 "
        f"(record 20 of the split of {PATH} starting at byte 120)"
    )
    assert raised.value.failed_split_ids == (1,)


# ------------------------------------------------------------------ NULLs


@pytest.mark.parametrize("raw, role", [(b"1,0\n,1\n", "feature"), (b"1,0\n2,\n", "label")])
def test_an_empty_dfs_field_is_a_null_that_fails_ingest(raw, role):
    with pytest.raises(IngestError, match=f"split 0: NULL {role} in column 'c[01]'"):
        ingest(raw, {})


@pytest.mark.parametrize("role", ["feature", "label"])
@pytest.mark.parametrize("columnar", [False, True], ids=["R-frames", "C-frames"])
def test_a_null_ml_input_fails_alike_on_both_deployments(columnar, role):
    """``columnar=True`` used to train on a NaN row, the default deployment
    to fail in ``float(None)``: one rule in the one kernel now."""
    dep = make_deployment(columnar=columnar)
    schema = Schema.of(("x", DataType.DOUBLE), ("y", DataType.INT))
    rows = [(float(i % 7), i % 2) for i in range(60)]
    rows[5] = (None, 1) if role == "feature" else (5.0, None)
    dep.engine.create_table("t", schema, rows)
    spec = TransformSpec(recode=(), dummy=(), label="y")
    with pytest.raises(TransferError) as raised:
        dep.pipeline.run_insql_stream("SELECT x, y FROM t", spec, "svm_with_sgd", {"iterations": 3})
    cause = raised.value.__cause__
    assert isinstance(cause, IngestError) and len(cause.failed_split_ids) == 1
    position = 0 if role == "feature" else 1
    assert f"NULL {role} in column " in str(cause) and f"(position {position})" in str(cause)


# ------------------------------------------------------------ the writer

OBJECT_VALUES = {  # values typed storage cannot hold: the column stays object
    DataType.INT: st.one_of(st.booleans(), st.integers(2**63, 2**70)),
    DataType.BIGINT: st.integers(-(2**70), -(2**63) - 1),
    DataType.DOUBLE: st.booleans(),
    DataType.VARCHAR: st.integers(-5, 5),
    DataType.BOOLEAN: st.integers(0, 2),
}
TYPED_VALUES = {
    DataType.INT: st.integers(-(2**63), 2**63 - 1),
    DataType.BIGINT: st.integers(-(2**31), 2**31),
    DataType.DOUBLE: st.one_of(
        st.floats(width=64),
        st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 0.1, float("inf"), float("nan")]),
        st.integers(-(2**60), 2**60),  # an int in a DOUBLE column widens
    ),
    DataType.VARCHAR: st.text(st.characters(blacklist_characters="\n,"), max_size=6),
    DataType.BOOLEAN: st.booleans(),
}


@st.composite
def batches(draw):
    dtypes = draw(st.lists(st.sampled_from(list(TYPED_VALUES)), min_size=1, max_size=5))
    num_rows = draw(st.integers(1, 12))
    columns = []
    for dtype in dtypes:
        values = TYPED_VALUES[dtype]
        if draw(st.booleans()):
            values = st.one_of(values, OBJECT_VALUES[dtype])
        if draw(st.booleans()):
            values = st.one_of(values, st.none())
        columns.append(draw(st.lists(values, min_size=num_rows, max_size=num_rows)))
    schema = Schema.of(*((f"c{i}", dtype) for i, dtype in enumerate(dtypes)))
    return ColumnBatch.from_rows(schema, list(zip(*columns)))


@settings(max_examples=200, deadline=None)
@given(batches())
def test_column_rendering_is_render_of_every_value(batch):
    dtypes = [column.dtype for column in batch.schema]
    expected = "".join(
        ",".join(dtype.render(value) for dtype, value in zip(dtypes, row)) + "\n"
        for row in batch.to_rows()
    )
    assert render_csv(batch) == expected
