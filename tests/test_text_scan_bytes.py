"""The text scan's cut on bytes (DESIGN §15, "the cut on bytes").

``cut_fields`` + ``ColumnVector.from_fields`` type a split's kept columns from
its bytes; ``split_fields`` + ``ColumnVector.from_texts`` — the text-domain
cut they replaced on plain tables — stay as the general path and are the
oracle here: wherever the kernel does not decline it must build the very same
vectors, dictionary order included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import make_deployment
from repro.columnar.batch import ColumnVector
from repro.common.errors import ExecutionError
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import FileSplit, LineRecordReader, TextInputFormat
from repro.columnar.text import RecordWidthError, cut_fields, split_fields
from repro.sql.types import DataType, Schema

PATH = "/t/data.csv"
from_fields = ColumnVector.from_fields.__func__


def text_table(raw: bytes, dtypes, delimiter=",", columnar=False):
    """The engine of a ``columnar=`` deployment with ``raw`` registered as
    table ``t`` (columns c0, c1, …).  The flag picks only the stream sink's
    frames, so no scan may depend on it."""
    dep = make_deployment(block_size=64, columnar=columnar)
    engine, dfs = dep.engine, dep.dfs
    dfs.write_bytes(PATH, raw)
    schema = Schema.of(*((f"c{i}", dtype) for i, dtype in enumerate(dtypes)))
    engine.register_external_table("t", schema, PATH, delimiter=delimiter)
    return engine, dfs


def scan_of(engine, kept):
    return engine.plan("SELECT " + ", ".join(f"c{i}" for i in kept) + " FROM t").child


def cut_split(data: bytes, scan, dtypes):
    """The scan's byte cut of one split's lines."""
    table = scan.table
    return cut_fields(data, table.external.delimiter, len(table.schema), scan.columns, dtypes)


def split_columns(data: bytes, scan, split):
    """The scan's general text cut of one split's lines."""
    table = scan.table
    return split_fields(data, split, table.external.delimiter, len(table.schema), scan.columns)


def split_lines(dfs, split) -> bytes:
    with LineRecordReader(dfs, split) as reader:
        return b"\n".join(reader.chunks())


def same_vector(got: ColumnVector, expected: ColumnVector) -> bool:
    """Bit for bit: ``-0.0`` is not ``0.0`` and a dictionary has an order;
    an ``object`` vector (an INT beyond int64) holds the same Python values."""
    as_bytes = (lambda data: repr(data.tolist())) if got.is_object else np.ndarray.tobytes
    return (
        got.dtype is expected.dtype
        and got.data.dtype == expected.data.dtype
        and as_bytes(got.data) == as_bytes(expected.data)
        and got.valid.tobytes() == expected.valid.tobytes()
        and got.dictionary == expected.dictionary
    )


def fields_of(texts: list[str]):
    """``(buf, starts, lens)`` of ``texts`` laid out as one comma-cut line."""
    raw = [text.encode("utf-8") for text in texts]
    lens = np.array([len(field) for field in raw], dtype=np.int32)
    starts = (np.cumsum(lens + 1) - lens - 1).astype(np.int32)
    return np.frombuffer(b",".join(raw) + b"\n", dtype=np.uint8), starts, lens


# ------------------------------------------------------------- differential

PLAIN = {
    DataType.INT: st.integers(-(10**17), 10**17).map(str),
    DataType.BIGINT: st.integers(-(10**6), 10**6).map(lambda v: f"{v:04d}"),
    DataType.DOUBLE: st.builds(
        lambda v, places: f"{v / 10**places:.{places}f}",
        st.one_of(st.integers(-2000, 2000), st.integers(-(10**9), 10**9)),
        st.integers(0, 3),
    ),
    DataType.VARCHAR: st.text(alphabet="a7é✓ N-.", min_size=1, max_size=2),
    DataType.BOOLEAN: st.sampled_from(["true", "f", "0", "yes"]),  # never typed on bytes
}
ODD = {
    DataType.INT: st.sampled_from(
        ["", "\\N", "+5", " 5", "5\r", "1_0", "-", "1.0", "x", "9" * 19, str(2**63), "-0", "\0"]
    ),
    DataType.DOUBLE: st.sampled_from(
        ["", "\\N", "1e3", "inf", "nan", "+1.5", " 1.5", "1.5\r", "1.2.3", ".", "-.", "-",
         "5.", ".5", "-.5", "-0.0", "0.1234567890123456", "1_0.5", "é"]
    ),
    DataType.VARCHAR: st.sampled_from(["", "\\N", "ninebytes", "a\0b", "✓✓✓", "-", "x\r"]),
    DataType.BOOLEAN: st.just(""),
}
ODD[DataType.BIGINT] = ODD[DataType.INT]


@st.composite
def tables(draw):
    """``(column types, which columns hold only plain fields, records)``."""
    dtypes = draw(st.lists(st.sampled_from(list(PLAIN)), min_size=1, max_size=4))
    plain = [draw(st.booleans()) for _ in dtypes]
    columns = [
        PLAIN[dtype] if only_plain else st.one_of(PLAIN[dtype], ODD[dtype])
        for dtype, only_plain in zip(dtypes, plain)
    ]
    records = draw(st.lists(st.tuples(*columns), max_size=12))
    return dtypes, plain, [list(record) for record in records]


class TestKernelMatchesTheTextCut:
    @settings(max_examples=150, deadline=None)
    @given(
        table=tables(),
        delimiter=st.sampled_from([",", "|", "\t", "||"]),
        blanks=st.lists(st.integers(0, 12), max_size=2),
        ragged=st.one_of(st.none(), st.tuples(st.integers(0, 12), st.booleans())),
        trailing_newline=st.booleans(),
        kept_mask=st.integers(1, 15),
        cuts=st.sets(st.integers(0, 400), max_size=4),
    )
    @example(  # a plain table: nothing may decline
        table=([DataType.BIGINT, DataType.DOUBLE, DataType.VARCHAR], [True] * 3,
               [["7", "-0.0", "é✓"], ["-12", "36.60", "No"], ["7", "0.05", "é✓"]]),
        delimiter=",", blanks=[], ragged=None, trailing_newline=True, kept_mask=7, cuts={9},
    )
    @example(  # short fields whose neighbours hold dots and signs
        table=([DataType.DOUBLE, DataType.DOUBLE, DataType.INT], [True] * 3,
               [["1.5", "7", "-1"], ["2", "3.25", "10"], ["-0.5", "4", "7"]]),
        delimiter="|", blanks=[], ragged=None, trailing_newline=False, kept_mask=7, cuts=set(),
    )
    def test_same_vectors_or_the_kernel_declined(
        self, table, delimiter, blanks, ragged, trailing_newline, kept_mask, cuts
    ):
        """Random schema, delimiter, kept columns, split boundaries and words
        outside ASCII: equal ``data``, ``valid`` and dictionary *order*, the
        same exception, or ``None`` — and never ``None`` on plain bytes."""
        dtypes, plain, records = table
        if ragged is not None and records:
            at, longer = ragged
            record = records[at % len(records)]
            records[at % len(records)] = record + ["x"] if longer else record[:-1]
        lines = [delimiter.join(record) for record in records]
        for at in blanks:
            lines.insert(at % (len(lines) + 1), "")
        raw = ("\n".join(lines) + ("\n" if trailing_newline and lines else "")).encode("utf-8")
        engine, dfs = text_table(raw, dtypes, delimiter)
        kept = [i for i in range(len(dtypes)) if kept_mask >> i & 1] or [0]
        scan = scan_of(engine, kept)
        kept_dtypes = [dtypes[i] for i in kept]

        bounds = sorted({0, len(raw)} | {cut for cut in cuts if cut < len(raw)})
        for start, end in zip(bounds, bounds[1:]):
            split = FileSplit(PATH, start, end - start)
            data = split_lines(dfs, split)
            try:
                expected = list(
                    map(ColumnVector.from_texts, kept_dtypes, split_columns(data, scan, split))
                )
            except RecordWidthError:  # a malformed record: the general path names it
                assert cut_split(data, scan, kept_dtypes) is None
                continue
            except (ValueError, OverflowError) as unparsable:
                with pytest.raises(type(unparsable)):
                    assert cut_split(data, scan, kept_dtypes) is None
                    raise unparsable
                continue
            declined = []  # per kept column: did from_fields hand it to from_texts?
            with mock.patch.object(ColumnVector, "from_fields", classmethod(
                lambda cls, *args: declined.append(from_fields(cls, *args)) or declined[-1]
            )):
                got = cut_split(data, scan, kept_dtypes)
            if got is None:
                assert len(delimiter) > 1 or b"" in data.split(b"\n")  # or no line at all
                continue
            assert all(map(same_vector, got, expected))
            typed_on_bytes = [vector is not None for vector in declined]
            assert all(typed or not plain[i] or dtypes[i] is DataType.BOOLEAN
                       for typed, i in zip(typed_on_bytes, kept))

    @settings(max_examples=200, deadline=None)
    @given(
        numbers=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 10**14 - 1),
                st.integers(0, 14),  # zero-filled width: leading zeros count as digits
                st.one_of(st.none(), st.integers(0, 14)),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @example(numbers=[(True, 0, 1, 1), (True, 0, 0, None), (False, 1, 14, 14), (False, 5, 0, 0)])
    def test_double_kernel_is_float_of_the_text_bit_for_bit(self, numbers):
        """``mantissa / 10.0**k`` with both exact rounds once, like ``float``:
        every bit equal, ``-0.0`` included, ``"5."`` and ``".5"`` too."""
        texts = []
        for negative, mantissa, fill, places in numbers:
            digits = str(mantissa).zfill(fill)
            if places is not None:
                cut = len(digits) - min(places, len(digits))
                digits = digits[:cut] + "." + digits[cut:]
            texts.append(("-" if negative else "") + digits)
        vector = ColumnVector.from_fields(DataType.DOUBLE, *fields_of(texts))
        assert vector is not None and vector.valid.all()
        assert vector.data.tobytes() == np.array(list(map(float, texts))).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from(list(PLAIN)))
    def test_the_oracle_is_parse_per_value(self, data, dtype):
        """``from_texts`` — what the kernel is held to — is itself
        ``DataType.parse`` of every field: same vector, NULLs where ``parse``
        says ``None``, the same exception."""
        texts = data.draw(st.lists(st.one_of(PLAIN[dtype], ODD[dtype]), max_size=12))
        try:
            expected = ColumnVector.from_values(dtype, [dtype.parse(text) for text in texts])
        except (ValueError, OverflowError):  # which of two comes first is not pinned
            with pytest.raises((ValueError, OverflowError)):
                ColumnVector.from_texts(dtype, texts)
        else:
            assert same_vector(ColumnVector.from_texts(dtype, texts), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(10**18) + 1, 10**18 - 1), min_size=1, max_size=20))
    def test_int_kernel_is_int_of_the_text(self, values):
        vector = ColumnVector.from_fields(DataType.BIGINT, *fields_of(list(map(str, values))))
        assert vector is not None and vector.data.tolist() == values


# ------------------------------------------------------------ decline table

INT, DOUBLE, VARCHAR, BOOLEAN = (
    DataType.INT, DataType.DOUBLE, DataType.VARCHAR, DataType.BOOLEAN
)
SPLIT = "split"  # the whole split goes to split_fields
#: (id, column types, file bytes, delimiter, who declines: SPLIT | set of columns)
DECLINES = [
    ("plain", (INT, DOUBLE, VARCHAR), b"-7,36.60,No\n007,-0.0,\xc3\xa9\xe2\x9c\x93\n", ",", set()),
    ("plain-no-trailing-newline", (INT, VARCHAR), b"1,a\n2,b", ",", set()),
    ("plain-tab", (INT, VARCHAR), b"1\ta,b\n2\tc\n", "\t", set()),
    ("bare-dots", (DOUBLE, DOUBLE), b"5.,.5\n-.5,-5.\n", ",", set()),
    ("digits-at-the-limit", (INT, DOUBLE), b"%s,%s\n" % (b"9" * 18, b"9" * 15), ",", set()),
    ("multi-character-delimiter", (INT, VARCHAR), b"1||a|\n2||b\n", "||", SPLIT),
    ("blank-lines", (INT, VARCHAR), b"1,a\n\n2,b\n", ",", SPLIT),
    ("blank-line-one-column", (VARCHAR,), b"a\n\nb\n", ",", SPLIT),
    ("short-record", (INT, VARCHAR), b"1,a\n2\n", ",", SPLIT),
    ("long-record", (INT, VARCHAR), b"1,a\n2,b,c\n", ",", SPLIT),
    ("nul-in-word", (INT, VARCHAR), b"1,a\x00b\n2,c\n", ",", {1}),
    ("nul-in-number", (INT, VARCHAR), b"1\x00,a\n", ",", {0}),
    ("empty-word", (INT, VARCHAR), b"1,\n2,b\n", ",", {1}),
    ("empty-number", (INT, DOUBLE), b",1.5\n2,\n", ",", {0, 1}),
    ("null-marker", (INT, VARCHAR), b"\\N,a\n2,\\N\n", ",", {0, 1}),
    ("boolean", (BOOLEAN, INT), b"true,1\nno,2\n", ",", {0}),
    ("exponent", (INT, DOUBLE), b"1,1e3\n2,2.5E-1\n", ",", {1}),
    ("inf-nan", (DOUBLE, DOUBLE), b"inf,nan\n-inf,1.0\n", ",", {0, 1}),
    ("plus-sign", (INT, DOUBLE), b"+1,+1.5\n", ",", {0, 1}),
    ("underscore", (INT, DOUBLE), b"1_0,1_0.5\n", ",", {0, 1}),
    ("whitespace", (INT, DOUBLE), b" 1,1.5 \n", ",", {0, 1}),
    ("two-dots", (DOUBLE,), b"1.2.3\n", ",", {0}),
    ("dot-in-int", (INT,), b"1.0\n", ",", {0}),
    ("lone-minus", (INT,), b"-\n", ",", {0}),
    ("lone-dot", (DOUBLE,), b".\n", ",", {0}),
    ("minus-dot", (DOUBLE,), b"-.\n", ",", {0}),
    ("too-many-digits", (INT, DOUBLE), b"%s,0.123456789012345\n" % (b"1" * 19), ",", {0, 1}),
    ("beyond-int64", (INT,), b"%d\n" % 2**70, ",", {0}),
    ("wide-word", (VARCHAR, VARCHAR), b"eightchr,ninebytes\n", ",", {1}),
    ("wide-non-ascii-word", (VARCHAR,), b"\xe2\x9c\x93\xe2\x9c\x93\xe2\x9c\x93\n", ",", {0}),
    # CRLF files: "4\r" keeps parsing as 4 and a word keeps its "\r", as before
    ("crlf-numbers", (INT, INT), b"1,4\r\n2,5\r\n", ",", {1}),
    ("crlf-word", (INT, VARCHAR), b"1,a\r\n2,b\r\n", ",", set()),
    ("unparsable", (INT, INT), b"1,x\n", ",", {1}),
]


@pytest.mark.parametrize(
    "dtypes, raw, delimiter, declines", [case[1:] for case in DECLINES],
    ids=[case[0] for case in DECLINES],
)
def test_decline_table(monkeypatch, dtypes, raw, delimiter, declines):
    """Who leaves the byte kernel — nobody on a plain table, one column, or
    the whole split — and that both planes then read what ``DataType.parse``
    of every field says (or raise what it raises)."""
    engine, dfs = text_table(raw, dtypes, delimiter)
    scan = scan_of(engine, range(len(dtypes)))
    calls = []  # per column, in order: did from_fields decline it?

    def spy(cls, dtype, buf, starts, lens):
        vector = from_fields(cls, dtype, buf, starts, lens)
        calls.append(vector is None)
        return vector

    monkeypatch.setattr(ColumnVector, "from_fields", classmethod(spy))
    records = [line.split(delimiter) for line in raw.decode("utf-8").split("\n") if line]
    expected = None  # a malformed record or an unparsable field: the scan raises
    if all(len(record) == len(dtypes) for record in records):
        try:
            expected = [tuple(map(DataType.parse, dtypes, record)) for record in records]
        except ValueError:
            pass

    data = split_lines(dfs, FileSplit(PATH, 0, len(raw)))
    try:
        cut = cut_split(data, scan, list(dtypes))
    except (ValueError, OverflowError):
        cut = "raised"
    if declines == SPLIT:
        assert cut is None and not calls
    else:
        assert cut is not None and {i for i, declined in enumerate(calls) if declined} == declines

    for columnar in (False, True):
        engine, _dfs = text_table(raw, dtypes, delimiter, columnar=columnar)
        if expected is None:
            with pytest.raises((ValueError, ExecutionError)):
                engine.query_rows("SELECT * FROM t")
        else:
            rows = engine.query_rows("SELECT * FROM t")
            assert sorted(map(repr, rows)) == sorted(map(repr, expected))  # nan != nan


# ------------------------------------------------------------ invalid UTF-8


@pytest.mark.parametrize("columnar", [False, True], ids=["rows", "columnar"])
@pytest.mark.parametrize("delimiter", [",", "||"], ids=["bytes-cut", "text-cut"])
@pytest.mark.parametrize("word", [b"ab\xff", b"ninebytes\xff"], ids=["kernel", "from_texts"])
def test_invalid_utf8_raises_only_where_it_is_read(columnar, delimiter, word):
    """A bare ``UnicodeDecodeError`` used to escape whatever the select
    list; now a kept column holding the bytes raises ``ExecutionError`` naming
    table, file and split, and a column the statement does not read is not
    decoded at all — like an unparsable field since the scan prunes."""
    raw = delimiter.encode().join([b"1", word, b"3"]) + b"\n"
    engine, _dfs = text_table(raw, (INT, VARCHAR, INT), delimiter, columnar=columnar)
    assert engine.query_rows("SELECT c0, c2 FROM t") == [(1, 3)]
    for select in ("c1", "*", "c0, c1"):
        with pytest.raises(ExecutionError) as raised:
            engine.query_rows(f"SELECT {select} FROM t")
        assert str(raised.value) == (
            f"invalid UTF-8 in t: invalid start byte (the split of {PATH} starting at byte 0)"
        )


@pytest.mark.parametrize("columnar", [False, True], ids=["rows", "columnar"])
def test_a_split_starting_inside_a_character(monkeypatch, columnar):
    """The partial first line a split discards is never decoded, so a split
    boundary inside a multi-byte character is not invalid UTF-8."""
    monkeypatch.setattr("repro.iofmt.text.MIN_SPLIT_BYTES", 1)
    lines = [f"{'✓' * (1 + i % 3)},{i}" for i in range(40)]
    raw = "".join(f"{line}\n" for line in lines).encode("utf-8")
    engine, dfs = text_table(raw, (VARCHAR, INT), columnar=columnar)
    conf = JobConf({"input.path": PATH}, dfs=dfs)
    starts = [split.start for split in TextInputFormat().get_splits(conf, engine.num_workers * 2)]
    assert any(raw[at] & 0xC0 == 0x80 for at in starts)  # a split starts on a continuation byte
    rows = engine.query_rows("SELECT c0, c1 FROM t")
    assert sorted(rows, key=lambda row: row[1]) == [("✓" * (1 + i % 3), i) for i in range(40)]
