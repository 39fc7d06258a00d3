"""Line- and CSV-oriented input formats over the distributed file system.

The split/line-boundary semantics are Hadoop's classic ones: splits are byte
ranges; a reader whose split starts mid-file discards the first (partial)
line, and every reader finishes the line that straddles its split's end.
Together the readers of a file yield each line exactly once.
"""

from dataclasses import dataclass

from repro.hdfs.filesystem import DistributedFileSystem
from repro.iofmt.inputformat import InputFormat, InputSplit, JobConf, RecordReader

MIN_SPLIT_BYTES = 64 * 1024


@dataclass(frozen=True)
class FileSplit(InputSplit):
    """A byte range of one DFS file, with replica hosts for locality."""

    path: str
    start: int
    split_length: int
    hosts: tuple[str, ...] = ()

    def locations(self) -> tuple[str, ...]:
        return self.hosts

    def length(self) -> int:
        return self.split_length


class LineRecordReader(RecordReader):
    """Yields text lines of one :class:`FileSplit` per Hadoop semantics."""

    def __init__(self, dfs: DistributedFileSystem, split: FileSplit, client_ip: str | None = None):
        self._split = split
        self._reader = dfs.open(split.path, client_ip=client_ip)
        self._reader.seek(split.start)
        self._buffer = b""
        self._eof = False
        self._consumed = 0  # bytes of the file consumed past split.start
        if split.start > 0:
            self._discard_partial_first_line()

    def __iter__(self):
        for chunk in self.chunks():
            yield from chunk.decode("utf-8").split("\n")

    def chunks(self):
        """The split's lines as undecoded runs of whole lines, ``b"\\n"``
        between the lines of a run and none at its end — what a consumer that
        cuts fields itself (the SQL text scan) reads in place of line objects;
        it decodes what it keeps."""
        # Hadoop's rule: keep reading while the line *starts* at a position
        # <= the split end (so the line straddling — or starting exactly at —
        # the boundary is read here); the next split's reader discards its
        # first partial line, which is exactly that one.  Net effect: every
        # line of the file is yielded by exactly one reader.
        #
        # Lines are taken a buffer at a time: everything up to a cut is
        # one run.  The cut is the newline of the last line
        # this split owns (the first newline at or after the split's end) or,
        # while the buffer stops short of that, the buffer's last newline;
        # lines of the next split stay in the buffer.
        limit = self._split.split_length
        while self._consumed <= limit:
            cut = self._buffer.find(b"\n", limit - self._consumed)
            if cut < 0:
                cut = self._buffer.rfind(b"\n")
            if cut < 0:
                line = self._read_line()
                if line is None:
                    return
                yield line
                continue
            chunk, self._buffer = self._buffer[:cut], self._buffer[cut + 1 :]
            self._consumed += cut + 1
            yield chunk

    def close(self) -> None:
        self._reader.close()

    # ------------------------------------------------------------- internals

    def _fill(self) -> bool:
        if self._eof:
            return False
        chunk = self._reader.read(64 * 1024)
        if not chunk:
            self._eof = True
            return False
        self._buffer += chunk
        return True

    def _read_line(self) -> bytes | None:
        """The next line, undecoded: a split may start inside a character,
        so the partial first line it discards need not be valid UTF-8."""
        while b"\n" not in self._buffer:
            if not self._fill():
                if self._buffer:
                    line = self._buffer
                    self._consumed += len(line)
                    self._buffer = b""
                    return line
                return None
        raw, self._buffer = self._buffer.split(b"\n", 1)
        self._consumed += len(raw) + 1
        return raw

    def _discard_partial_first_line(self) -> None:
        discarded = self._read_line()
        if discarded is None:
            self._eof = True


class TextInputFormat(InputFormat):
    """Splits DFS text files into byte ranges and reads them line by line.

    Required configuration: ``input.path`` property (file or directory) and
    a ``dfs`` object.  Optional: ``client.ip`` for replica locality of the
    reading process.
    """

    def get_splits(self, conf: JobConf, num_splits: int) -> list[InputSplit]:
        dfs: DistributedFileSystem = conf.require_object("dfs")
        path = conf.get("input.path")
        if path is None:
            raise ValueError("TextInputFormat requires the 'input.path' property")
        files = dfs.list_files(path)
        total = sum(dfs.status(f).length for f in files)
        if total == 0 or num_splits < 1:
            return []
        target = max(total // num_splits, MIN_SPLIT_BYTES, 1)
        splits: list[InputSplit] = []
        for file_path in files:
            length = dfs.status(file_path).length
            locations = dfs.block_locations(file_path)
            offset = 0
            while offset < length:
                chunk = min(target, length - offset)
                # Hadoop's 1.1 slack rule: avoid a tiny tail split.
                if length - offset - chunk < target * 0.1:
                    chunk = length - offset
                hosts = self._hosts_for(locations, offset)
                splits.append(FileSplit(file_path, offset, chunk, hosts))
                offset += chunk
        return splits

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        dfs: DistributedFileSystem = conf.require_object("dfs")
        if not isinstance(split, FileSplit):
            raise TypeError(f"TextInputFormat cannot read {type(split).__name__}")
        return LineRecordReader(dfs, split, client_ip=conf.get("client.ip"))

    @staticmethod
    def _hosts_for(locations, offset: int) -> tuple[str, ...]:
        for loc in locations:
            if loc.offset <= offset < loc.offset + loc.length:
                return loc.hosts
        return ()


class CsvRecordReader(RecordReader):
    """Wraps a line reader: its records are the non-blank lines split on a
    delimiter, its one block the split as an all-DOUBLE ``ColumnBatch``."""

    def __init__(self, inner: LineRecordReader, delimiter: str, split: FileSplit):
        self._inner = inner
        self._delimiter = delimiter
        self._split = split

    def __iter__(self):
        for line in self._inner:
            if line:
                yield line.split(self._delimiter)

    def blocks(self):
        """The split cut by the SQL text scan's kernel
        (:func:`~repro.columnar.text.read_columns`): every field a DOUBLE,
        as many as the split's first record has.  A malformed record raises
        ``RecordWidthError`` naming the split and the record."""
        # imported here: the columnar and SQL packages import this module
        from repro.columnar.batch import ColumnBatch
        from repro.columnar.text import read_columns
        from repro.sql.types import DataType, Schema

        raw = b"\n".join(self._inner.chunks())
        first = raw.lstrip(b"\n").split(b"\n", 1)[0]
        if first:
            width = first.count(self._delimiter.encode()) + 1
            schema = Schema.of(*((f"c{i}", DataType.DOUBLE) for i in range(width)))
            dtypes = [DataType.DOUBLE] * width
            vectors = read_columns(raw, self._split, self._delimiter, width, range(width), dtypes)
            yield ColumnBatch.from_columns(schema, vectors, len(vectors[0]))

    def close(self) -> None:
        self._inner.close()


class CsvInputFormat(TextInputFormat):
    """Text format whose records are delimiter-split field lists.

    Optional property ``csv.delimiter`` (default ``,``).
    """

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        inner = super().create_record_reader(split, conf)
        return CsvRecordReader(inner, conf.get("csv.delimiter", ","), split)
