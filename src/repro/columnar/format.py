"""Columnar part-file encoding/decoding and its InputFormat.

File layout (JSON, one document per part file — the moral equivalent of one
Parquet row group):

.. code-block:: json

   {"magic": "RCOL1", "rows": 3,
    "columns": [
       {"name": "gender", "type": "VARCHAR", "encoding": "dict",
        "dictionary": ["M", "F"], "codes": [0, 1, 0]},
       {"name": "age", "type": "INT", "encoding": "plain",
        "values": [57, 40, 35]}]}

VARCHAR columns are dictionary-encoded with a *file-local* dictionary in
first-occurrence order (0-based) — deliberately mirroring the properties
§2.1 says make such dictionaries unusable as recode values.  NULLs encode
as code/value null.
"""

import json
from dataclasses import dataclass

from repro.common.errors import ExecutionError
from repro.hdfs.filesystem import DistributedFileSystem
from repro.iofmt.inputformat import InputFormat, InputSplit, JobConf, RecordReader
from repro.sql.types import DataType, Schema

MAGIC = "RCOL1"


def encode_partition(schema: Schema, rows: list[tuple]) -> bytes:
    """Encode one partition's rows into a columnar part file."""
    columns = []
    # One zip(*rows) pivots all columns at once instead of one O(rows)
    # comprehension per column.
    pivoted = list(zip(*rows)) if rows else [()] * len(schema)
    for index, column in enumerate(schema):
        values = pivoted[index]
        if column.dtype is DataType.VARCHAR:
            dictionary: list[str] = []
            positions: dict[str, int] = {}
            codes: list[int | None] = []
            for value in values:
                if value is None:
                    codes.append(None)
                    continue
                position = positions.get(value)
                if position is None:
                    position = len(dictionary)
                    positions[value] = position
                    dictionary.append(value)
                codes.append(position)
            columns.append(
                {
                    "name": column.name,
                    "type": column.dtype.value,
                    "encoding": "dict",
                    "dictionary": dictionary,
                    "codes": codes,
                }
            )
        else:
            columns.append(
                {
                    "name": column.name,
                    "type": column.dtype.value,
                    "encoding": "plain",
                    "values": values,
                }
            )
    document = {"magic": MAGIC, "rows": len(rows), "columns": columns}
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def decode_partition(data: bytes) -> tuple[list[str], list[tuple]]:
    """Decode a part file into (column names, rows)."""
    document = json.loads(data.decode("utf-8"))
    if document.get("magic") != MAGIC:
        raise ExecutionError("not a columnar part file (bad magic)")
    names = [c["name"] for c in document["columns"]]
    decoded_columns = []
    for column in document["columns"]:
        if column["encoding"] == "dict":
            dictionary = column["dictionary"]
            decoded_columns.append(
                [None if code is None else dictionary[code] for code in column["codes"]]
            )
        else:
            dtype = DataType(column["type"])
            if dtype in (DataType.INT, DataType.BIGINT):
                decoded_columns.append(
                    [None if v is None else int(v) for v in column["values"]]
                )
            elif dtype is DataType.DOUBLE:
                decoded_columns.append(
                    [None if v is None else float(v) for v in column["values"]]
                )
            else:
                decoded_columns.append(column["values"])
    rows = list(zip(*decoded_columns)) if decoded_columns else []
    if len(rows) != document["rows"]:
        raise ExecutionError(
            f"columnar file corrupt: header says {document['rows']} rows, "
            f"decoded {len(rows)}"
        )
    return names, rows


def decode_partition_batch(data: bytes, schema: Schema, columns):
    """Decode the ``columns`` (schema positions) of a part file
    straight into a typed :class:`~repro.columnar.batch.ColumnBatch` — the
    columnar scan path.

    Dictionary-encoded VARCHAR columns *adopt* the file-local dictionary
    (codes are copied, never re-encoded); plain columns land in numpy
    arrays.  No row tuples are materialized, and no vector is built for a
    column the scan does not keep.
    """
    from repro.columnar.batch import ColumnBatch, ColumnVector

    document = json.loads(data.decode("utf-8"))
    if document.get("magic") != MAGIC:
        raise ExecutionError("not a columnar part file (bad magic)")
    if len(document["columns"]) != len(schema):
        raise ExecutionError(
            f"columnar file has {len(document['columns'])} columns, "
            f"schema expects {len(schema)}"
        )
    vectors = []
    for index in columns:
        doc = document["columns"][index]
        if doc["encoding"] == "dict":
            vectors.append(ColumnVector.from_dict_codes(doc["codes"], doc["dictionary"]))
        else:
            vectors.append(ColumnVector.from_values(schema.column(index).dtype, doc["values"]))
    if vectors and len(vectors[0]) != document["rows"]:
        raise ExecutionError(
            f"columnar file corrupt: header says {document['rows']} rows, "
            f"decoded {len(vectors[0])}"
        )
    return ColumnBatch.from_columns(
        Schema([schema.column(i) for i in columns]), vectors, document["rows"]
    )


def read_partition_dictionary(
    dfs: DistributedFileSystem, path: str, column: str
) -> list[str]:
    """The file-local dictionary of one VARCHAR column (first-seen order).

    This is the "internal physical dictionary encoding" §2.1 talks about;
    exposing it lets tests demonstrate why it cannot serve as a recode map.
    """
    document = json.loads(dfs.read_bytes(path).decode("utf-8"))
    for col in document["columns"]:
        if col["name"].lower() == column.lower():
            if col["encoding"] != "dict":
                raise ExecutionError(f"column {column!r} is not dictionary-encoded")
            return list(col["dictionary"])
    raise ExecutionError(f"no column {column!r} in {path}")


def write_table(
    dfs: DistributedFileSystem,
    directory: str,
    schema: Schema,
    partitions: list[list[tuple]],
    client_ips: list[str] | None = None,
) -> int:
    """Write one part file per partition; returns total bytes written."""
    dfs.mkdirs(directory)
    total = 0
    for index, rows in enumerate(partitions):
        payload = encode_partition(schema, rows)
        client_ip = client_ips[index % len(client_ips)] if client_ips else None
        dfs.write_bytes(f"{directory}/part-{index:05d}.rcol", payload, client_ip)
        total += len(payload)
    return total


@dataclass(frozen=True)
class ColumnarSplit(InputSplit):
    """One part file (the row-group granularity of this format)."""

    path: str
    file_length: int
    hosts: tuple[str, ...] = ()

    def locations(self) -> tuple[str, ...]:
        return self.hosts

    def length(self) -> int:
        return self.file_length


class ColumnarRecordReader(RecordReader):
    """Yields the rows of one part file as tuples."""

    def __init__(self, dfs: DistributedFileSystem, split: ColumnarSplit, client_ip=None):
        self._dfs = dfs
        self._split = split
        self._client_ip = client_ip

    def __iter__(self):
        data = self._dfs.read_bytes(self._split.path, client_ip=self._client_ip)
        _names, rows = decode_partition(data)
        yield from rows


class ColumnarInputFormat(InputFormat):
    """One split per part file; records are typed row tuples.

    Required configuration: ``input.path`` property and a ``dfs`` object.
    """

    def get_splits(self, conf: JobConf, num_splits: int) -> list[InputSplit]:
        dfs: DistributedFileSystem = conf.require_object("dfs")
        path = conf.get("input.path")
        if path is None:
            raise ValueError("ColumnarInputFormat requires the 'input.path' property")
        splits: list[InputSplit] = []
        for file_path in dfs.list_files(path):
            locations = dfs.block_locations(file_path)
            hosts = locations[0].hosts if locations else ()
            splits.append(
                ColumnarSplit(file_path, dfs.status(file_path).length, hosts)
            )
        return splits

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        if not isinstance(split, ColumnarSplit):
            raise TypeError(f"ColumnarInputFormat cannot read {type(split).__name__}")
        dfs: DistributedFileSystem = conf.require_object("dfs")
        return ColumnarRecordReader(dfs, split, client_ip=conf.get("client.ip"))
