"""The only file of the benchmark that imports ``repro``.

Everything else reaches the system through the deployment objects built
here (``dep.engine``, ``dep.dfs``, ``dep.pipeline``, ``dep.coordinator``) or
through :func:`lookup`, which resolves a dotted name and returns ``None``
when a later PR has deleted the target — so a removed knob, encoder or
class turns into a noted gap in the per-layer numbers, never a broken
benchmark.
"""

import importlib
import inspect
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import repro  # noqa: E402  (needs the path entry above)
from repro.common.errors import ReproError  # noqa: E402
from repro.sql.types import DataType, Schema  # noqa: E402
from repro.transform.spec import TransformSpec  # noqa: E402

from bench_e2e import datagen  # noqa: E402

#: The paper's transformation: recode both categoricals, dummy-code gender.
PAPER_SPEC = TransformSpec(
    recode=("gender", "abandoned"), dummy=("gender",), label="abandoned"
)

USERS_SCHEMA = Schema.of(
    ("userid", DataType.BIGINT),
    ("age", DataType.INT),
    ("gender", DataType.VARCHAR),
    ("country", DataType.VARCHAR),
)
CARTS_SCHEMA = Schema.of(
    ("cartid", DataType.BIGINT),
    ("userid", DataType.BIGINT),
    ("amount", DataType.DOUBLE),
    ("nItems", DataType.INT),
    ("year", DataType.INT),
    ("created", DataType.VARCHAR),
    ("channel", DataType.VARCHAR),
    ("couponCode", DataType.VARCHAR),
    ("abandoned", DataType.VARCHAR),
)
POINTS_SCHEMA = Schema.of(
    ("id", DataType.BIGINT),
    ("f1", DataType.DOUBLE),
    ("f2", DataType.DOUBLE),
    ("label", DataType.DOUBLE),
)


def supported_knobs(knobs: dict, factory=None) -> dict:
    """The subset of ``knobs`` the deployment factory still accepts.

    A knob that is gone from the signature means its behaviour became the
    default (ROADMAP items 2 and 4 delete ``columnar=`` / ``transport=`` /
    ``max_concurrent_sessions=``), so it is dropped rather than passed.
    """
    params = inspect.signature(factory or repro.make_deployment).parameters
    return {k: v for k, v in knobs.items() if k in params}


def make_deployment(**knobs):
    return repro.make_deployment(**supported_knobs(knobs))


def reach(obj, path: str):
    """``obj.a.b`` for ``path = "a.b"``, or ``None`` where an attribute is gone."""
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def lookup(path: str):
    """Resolve ``"package.module:attr.attr"``; ``None`` if any part is gone."""
    module_name, _, attrs = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return reach(module, attrs) if attrs else module


def _write_parts(dep, directory: str, lines: list[str]) -> None:
    """One CSV part file per worker, written node-local, as a warehouse would."""
    workers = [node.ip for node in dep.cluster.workers]
    dep.dfs.mkdirs(directory)
    for part, ip in enumerate(workers):
        text = "".join(f"{line}\n" for line in lines[part :: len(workers)])
        dep.dfs.write_text(f"{directory}/part-{part:05d}", text, client_ip=ip)


def load_retail(dep, data: datagen.RetailData, base_dir: str = "/warehouse") -> None:
    """Store both tables as text on the DFS and register them."""
    _write_parts(dep, f"{base_dir}/users", datagen.users_lines(data))
    _write_parts(dep, f"{base_dir}/carts", datagen.carts_lines(data))
    dep.engine.register_external_table("users", USERS_SCHEMA, f"{base_dir}/users")
    dep.engine.register_external_table("carts", CARTS_SCHEMA, f"{base_dir}/carts")


def load_points(dep) -> None:
    dep.engine.create_table("points", POINTS_SCHEMA, datagen.points_rows())


def trace_targets(dep) -> list[tuple]:
    """``(owner, attribute, span name)`` of every layer boundary the traced
    round wraps; ``owner`` is ``None`` where the target no longer exists.

    All are public callables: class methods are patched on the class, table
    UDFs on the registered instances.
    """

    def cls(path: str):
        obj = reach(dep, path)
        return None if obj is None else type(obj)

    targets = [
        (cls("pipeline.rewriter"), "plan", "rewriter.plan"),
        (cls("pipeline.cache"), "lookup_transformed", "caching.lookup"),
        (cls("pipeline.cache"), "lookup_recode_map", "caching.lookup"),
        (cls("engine"), "plan", "sql.plan"),
        (cls("engine"), "execute_distributed", "sql.execute"),
        (cls("coordinator"), "create_session", "transfer.create_session"),
        (cls("coordinator"), "wait_result", "transfer.wait_result"),
        (cls("coordinator"), "close_session", "transfer.close_session"),
        (cls("ml"), "run_job", "ml.run_job"),
        (cls("pipeline.jaql"), "transform", "mapreduce.jaql"),
        (lookup("repro.hdfs.filesystem:DfsReader"), "read", "hdfs.read"),
        (lookup("repro.hdfs.filesystem:DfsWriter"), "write", "hdfs.write"),
        (lookup("repro.hdfs.filesystem:DfsWriter"), "close", "hdfs.write"),
    ]
    get_udf = reach(dep, "engine.catalog.get_table_udf")
    for udf_name, span in (
        ("local_distinct", "transform.udf"),
        ("recode", "transform.udf"),
        ("dummy_code", "transform.udf"),
        ("stream_transfer", "transfer.send_udf"),
    ):
        try:
            udf = get_udf(udf_name) if get_udf else None
        except ReproError:  # a UDF that is gone is a gap, not a failure
            udf = None
        for method in ("process_partition", "process_batch"):
            targets.append((udf, method, span))
    return [
        (owner if owner is not None and hasattr(owner, attr) else None, attr, span)
        for owner, attr, span in targets
    ]
