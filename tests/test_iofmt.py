"""InputFormat layer: split planning and Hadoop line-boundary semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.hdfs.filesystem import DistributedFileSystem
from repro.iofmt.inputformat import JobConf
from repro.iofmt.text import (
    CsvInputFormat,
    FileSplit,
    LineRecordReader,
    TextInputFormat,
)


def make_dfs(block_size=64):
    cluster = make_paper_cluster()
    return DistributedFileSystem(cluster, block_size=block_size)


def read_all_lines(dfs, path, num_splits):
    """Manually split a file into equal byte ranges and read every split."""
    length = dfs.status(path).length
    locations = dfs.block_locations(path)
    chunk = max(length // num_splits, 1)
    lines = []
    offset = 0
    while offset < length:
        size = min(chunk, length - offset)
        if length - offset - size < 1:
            size = length - offset
        split = FileSplit(path, offset, size)
        reader = LineRecordReader(dfs, split)
        lines.extend(reader)
        reader.close()
        offset += size
    return lines


class TestJobConf:
    def test_props(self):
        conf = JobConf({"a": 1})
        assert conf.get("a") == 1
        assert conf.get("b", "dflt") == "dflt"
        conf.set("b", 2)
        assert conf.get("b") == 2

    def test_objects(self):
        sentinel = object()
        conf = JobConf(dfs=sentinel)
        assert conf.require_object("dfs") is sentinel

    def test_missing_object_error_names_available(self):
        conf = JobConf(dfs=1, coordinator=2)
        with pytest.raises(KeyError, match="coordinator"):
            conf.require_object("nope")


class TestLineBoundaries:
    """The Hadoop exactly-once contract for line records across splits."""

    def test_two_splits_mid_line(self):
        dfs = make_dfs()
        dfs.write_text("/f", "aaa\nbbb\nccc\n")
        r1 = list(LineRecordReader(dfs, FileSplit("/f", 0, 6)))
        r2 = list(LineRecordReader(dfs, FileSplit("/f", 6, 6)))
        assert r1 == ["aaa", "bbb"]
        assert r2 == ["ccc"]

    def test_split_on_line_boundary(self):
        dfs = make_dfs()
        dfs.write_text("/f", "aaa\nbbb\nccc\n")
        r1 = list(LineRecordReader(dfs, FileSplit("/f", 0, 4)))
        r2 = list(LineRecordReader(dfs, FileSplit("/f", 4, 8)))
        assert r1 + r2 == ["aaa", "bbb", "ccc"]
        assert r1 == ["aaa", "bbb"]  # boundary line belongs to the left split

    def test_no_trailing_newline(self):
        dfs = make_dfs()
        dfs.write_text("/f", "aaa\nbbb")
        r1 = list(LineRecordReader(dfs, FileSplit("/f", 0, 3)))
        r2 = list(LineRecordReader(dfs, FileSplit("/f", 3, 4)))
        assert r1 + r2 == ["aaa", "bbb"]

    def test_single_split_whole_file(self):
        dfs = make_dfs()
        dfs.write_text("/f", "x\ny\n")
        assert list(LineRecordReader(dfs, FileSplit("/f", 0, 4))) == ["x", "y"]

    def test_empty_file(self):
        dfs = make_dfs()
        dfs.write_text("/f", "")
        assert list(LineRecordReader(dfs, FileSplit("/f", 0, 0))) == []

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\n", min_codepoint=32, max_codepoint=126),
                min_size=0,
                max_size=20,
            ),
            min_size=1,
            max_size=40,
        ),
        num_splits=st.integers(min_value=1, max_value=7),
        block_size=st.integers(min_value=8, max_value=128),
    )
    def test_every_line_exactly_once(self, lines, num_splits, block_size):
        """The load-bearing invariant: any split layout over any content
        yields each line exactly once, in order."""
        dfs = make_dfs(block_size=block_size)
        content = "\n".join(lines) + "\n"
        dfs.write_text("/prop", content)
        got = read_all_lines(dfs, "/prop", num_splits)
        assert got == lines


class PerLineReader(LineRecordReader):
    """The loop LineRecordReader had before it took lines a buffer at a time
    (one ``_read_line`` per record) — kept here as the oracle only."""

    def __iter__(self):
        while self._consumed <= self._split.split_length:
            line = self._read_line()
            if line is None:
                return
            yield line.decode("utf-8")


def read_splits(reader_cls, dfs, path, bounds):
    """``(lines of every split in file order, ledger delta of reading them)``."""
    before = dfs.cluster.ledger.snapshot()
    lines = []
    for start, end in zip(bounds, bounds[1:]):
        with reader_cls(dfs, FileSplit(path, start, end - start)) as reader:
            lines.extend(reader)
    ledger = dfs.cluster.ledger
    return lines, ledger.delta(before, ledger.snapshot())


LINE = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
        max_size=12,
    ),
    st.just(""),
    # longer than the reader's 64 KiB buffer, in 1-, 2- and 3-byte characters
    st.builds(lambda ch, n: ch * n, st.sampled_from("aé✓"), st.integers(66_000, 70_000)),
)


class TestBulkLineSplitting:
    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(LINE, max_size=30),
        trailing_newline=st.booleans(),
        block_size=st.sampled_from([16, 100, 4096, 70_000]),
        data=st.data(),
    )
    def test_any_bytes_any_splits_match_the_per_line_loop(
        self, lines, trailing_newline, block_size, data
    ):
        """Any file content under any split boundaries (inside a line, inside
        a multi-byte character, on a newline): every line exactly once, in
        order, with the same DFS reads as the per-line loop."""
        content = "\n".join(lines) + ("\n" if trailing_newline and lines else "")
        raw = content.encode("utf-8")
        dfs = make_dfs(block_size=block_size)
        dfs.write_bytes("/any", raw)
        cuts = data.draw(st.sets(st.integers(0, len(raw)), max_size=6))
        bounds = sorted(cuts | {0, len(raw)})  # no empty splits

        got, reads = read_splits(LineRecordReader, dfs, "/any", bounds)
        expected = content.split("\n") if raw else []
        if content.endswith("\n"):
            expected.pop()
        assert got == expected
        oracle_lines, oracle_reads = read_splits(PerLineReader, dfs, "/any", bounds)
        assert oracle_lines == expected
        assert reads == oracle_reads
        assert bool(reads.get("dfs.read")) == bool(raw)

    def test_split_starting_inside_a_character(self):
        """The discarded partial first line is never decoded."""
        dfs = make_dfs()
        dfs.write_bytes("/mb", "é✓é\nxyz\n".encode("utf-8"))
        assert list(LineRecordReader(dfs, FileSplit("/mb", 0, 3))) == ["é✓é"]
        assert list(LineRecordReader(dfs, FileSplit("/mb", 3, 9))) == ["xyz"]

    def test_lines_of_the_next_split_stay_in_the_buffer(self):
        dfs = make_dfs()
        dfs.write_text("/f", "aa\nbb\ncc\ndd\n")
        reader = LineRecordReader(dfs, FileSplit("/f", 0, 4))
        assert list(reader) == ["aa", "bb"]
        assert reader._buffer == b"cc\ndd\n"


class TestTextInputFormat:
    def test_get_splits_covers_file(self):
        dfs = make_dfs()
        dfs.write_text("/data/f", "line\n" * 200)
        conf = JobConf({"input.path": "/data/f"}, dfs=dfs)
        splits = TextInputFormat().get_splits(conf, 4)
        assert splits
        covered = sorted((s.start, s.start + s.split_length) for s in splits)
        assert covered[0][0] == 0
        for (s1, e1), (s2, _e2) in zip(covered, covered[1:]):
            assert e1 == s2
        assert covered[-1][1] == dfs.status("/data/f").length

    def test_directory_input(self):
        dfs = make_dfs()
        dfs.write_text("/dir/a", "1\n2\n")
        dfs.write_text("/dir/b", "3\n")
        conf = JobConf({"input.path": "/dir"}, dfs=dfs)
        fmt = TextInputFormat()
        splits = fmt.get_splits(conf, 2)
        lines = []
        for split in splits:
            with fmt.create_record_reader(split, conf) as reader:
                lines.extend(reader)
        assert sorted(lines) == ["1", "2", "3"]

    def test_splits_carry_block_hosts(self):
        dfs = make_dfs(block_size=64)
        dfs.write_text("/h", "x" * 50 + "\n")
        conf = JobConf({"input.path": "/h"}, dfs=dfs)
        (split,) = TextInputFormat().get_splits(conf, 1)
        assert split.locations() == dfs.block_locations("/h")[0].hosts

    def test_missing_input_path(self):
        conf = JobConf({}, dfs=make_dfs())
        with pytest.raises(ValueError):
            TextInputFormat().get_splits(conf, 1)

    def test_empty_input(self):
        dfs = make_dfs()
        dfs.write_text("/e", "")
        conf = JobConf({"input.path": "/e"}, dfs=dfs)
        assert TextInputFormat().get_splits(conf, 4) == []

    def test_wrong_split_type_rejected(self):
        dfs = make_dfs()
        conf = JobConf({"input.path": "/x"}, dfs=dfs)

        class FakeSplit:
            pass

        with pytest.raises(TypeError):
            TextInputFormat().create_record_reader(FakeSplit(), conf)


class TestCsvInputFormat:
    def test_fields_split(self):
        dfs = make_dfs()
        dfs.write_text("/c", "1,a,x\n2,b,y\n")
        conf = JobConf({"input.path": "/c"}, dfs=dfs)
        fmt = CsvInputFormat()
        (split,) = fmt.get_splits(conf, 1)
        with fmt.create_record_reader(split, conf) as reader:
            rows = list(reader)
        assert rows == [["1", "a", "x"], ["2", "b", "y"]]

    def test_custom_delimiter(self):
        dfs = make_dfs()
        dfs.write_text("/c", "1|a\n2|b\n")
        conf = JobConf({"input.path": "/c", "csv.delimiter": "|"}, dfs=dfs)
        fmt = CsvInputFormat()
        (split,) = fmt.get_splits(conf, 1)
        with fmt.create_record_reader(split, conf) as reader:
            assert list(reader) == [["1", "a"], ["2", "b"]]

    def test_blank_lines_skipped(self):
        dfs = make_dfs()
        dfs.write_text("/c", "1,a\n\n2,b\n")
        conf = JobConf({"input.path": "/c"}, dfs=dfs)
        fmt = CsvInputFormat()
        rows = []
        for split in fmt.get_splits(conf, 1):
            with fmt.create_record_reader(split, conf) as reader:
                rows.extend(reader)
        assert rows == [["1", "a"], ["2", "b"]]
