"""Reachability gate: no definition in ``src/repro`` that nothing reaches,
and no wiring parameter that no caller passes.

Both checks read the code with ``ast`` and compare words; they do not
import it.  A definition is reached when its name appears in ``src/repro``
as a name, an attribute, an import, an ``__all__`` entry or a word of a
string constant that is not a docstring (dispatch by name).  Names reached
only from tests, benchmarks, examples or ``bench_e2e`` sit on
:data:`ALLOWED`, each with a one-line reason.  The list may only shrink: an
entry that is deleted or gains a ``src/repro`` referent fails
:func:`test_allow_list_is_current` until it is taken off.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_]\w*")

ALLOWED = {
    "caching/cache.py:entry_counts": "tests observe what the cache holds",
    "caching/cache.py:invalidate_table": "the cache's refresh hook for external tables; tests call it",
    "checkpoint/store.py:encode_checkpoint": "tests frame checkpoint blobs to plant damage",
    "cluster/cost.py:reset": "examples/fault_tolerant_broker.py zeroes the ledger between runs",
    "hdfs/datanode.py:block_count": "tests observe a DataNode's replicas",
    "hdfs/datanode.py:used_bytes": "tests observe a DataNode's disk use",
    "hdfs/filesystem.py:run_repair_cycle": "tests drive one self-healing pass",
    "hdfs/namenode.py:is_live": "tests observe NameNode liveness",
    "ml/dataset.py:from_records": "tests build row Datasets from plain records",
    "ml/mapreduce_ml.py:MapReduceKMeans": "the section 1 MapReduce ML system; tests train it",
    "ml/mapreduce_ml.py:MapReduceNaiveBayes": "the section 1 MapReduce ML system; tests train it on run_insql output",
    "ml/system.py:register_algorithm": "examples/custom_algorithm.py registers an algorithm",
    "ml/validation.py:evaluate_classifier": "examples/cart_abandonment.py scores its classifiers",
    "ml/validation.py:train_test_split": "examples/cart_abandonment.py holds out a test set",
    "sim/chaos.py:explore": "benchmarks/bench_chaossearch.py runs the schedule search",
    "sim/chaos.py:fingerprint": "benchmarks compare chaos runs by fingerprint",
    "sim/chaos.py:raise_for_violations": "tests check a violated invariant raises",
    "sim/chaos.py:to_json": "benchmarks write minimized schedules",
    "sql/engine.py:analyze": "SQL ANALYZE; tests check the statistics the planner reads",
    "sql/engine.py:insert_rows": "tests check a table update invalidates caches",
    "sql/engine.py:register_scalar_udf": "the scalar UDF extension hook; tests register one",
    "sql/parser.py:parse_expression": "tests parse bare predicates",
    "transfer/admission.py:queue_state": "tests observe admission queue order",
    "transfer/admission.py:queued_count": "tests observe admission queue length",
    "transfer/admission.py:running_count": "tests observe admitted sessions",
    "transfer/buffers.py:decode_col_block": "bench_e2e resolves it by string",
    "transform/recode.py:as_table_rows": "tests check the recode-by-join formulation",
    "transform/spec.py:fingerprint": "tests and benchmarks key transform specs by it",
}

#: Entry points whose every parameter must be passed by some caller.
WIRING = {
    "make_deployment": "__init__.py",
    "CoordinatorHAGroup": "transfer/ha.py",
    "Coordinator": "transfer/coordinator.py",
    "AnalyticsPipeline": "integration/pipeline.py",
}


def _trees(*dirs):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions() -> set[str]:
    found = set()
    for path, tree in _trees("src/repro"):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.add(f"{rel}:{node.name}")
    return found


def _referents() -> Counter:
    words = Counter()
    for _path, tree in _trees("src/repro"):
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words[node.id] += 1
            elif isinstance(node, ast.Attribute):
                words[node.attr] += 1
            elif isinstance(node, ast.alias):
                words[node.name.rsplit(".", 1)[-1]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    words.update(WORD.findall(node.value))
    return words


class _PassedArguments(ast.NodeVisitor):
    """Keyword names every call passes (a pass-through ``x=x`` of the
    enclosing function's own parameter ``x`` chooses no value, so it does
    not count), and the most positional arguments any call of a
    :data:`WIRING` entry point passes."""

    def __init__(self):
        self.scopes = [set()]
        self.keywords = set()
        self.positional = Counter()

    def visit_FunctionDef(self, node):
        args = node.args
        self.scopes.append({a.arg for a in args.posonlyargs + args.args + args.kwonlyargs})
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        for kw in node.keywords:
            forwarded = isinstance(kw.value, ast.Name) and kw.value.id == kw.arg
            if kw.arg and not (forwarded and kw.arg in self.scopes[-1]):
                self.keywords.add(kw.arg)
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        if callee in WIRING:
            self.positional[callee] = max(self.positional[callee], len(node.args))
        self.generic_visit(node)


def _parameters(name: str, rel: str) -> list[str]:
    for node in ast.walk(ast.parse((SRC / rel).read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
            if isinstance(node, ast.ClassDef):
                node = next(f for f in node.body if getattr(f, "name", "") == "__init__")
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            return [a for a in names if a != "self"]
    raise AssertionError(f"{name} not found in {rel}")


def test_every_definition_is_reached():
    words = _referents()
    unreached = sorted(
        key for key in _definitions() - set(ALLOWED) if not words[key.split(":")[1]]
    )
    assert not unreached, f"nothing in src/repro reaches: {unreached}"


def test_allow_list_is_current():
    words = _referents()
    defined = _definitions()
    stale = sorted(k for k in ALLOWED if k not in defined or words[k.split(":")[1]])
    assert not stale, f"take these off ALLOWED (gone, or reached from src): {stale}"
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())


def test_every_wiring_parameter_is_passed():
    visitor = _PassedArguments()
    for _path, tree in _trees("src", "tests", "benchmarks", "examples"):
        visitor.visit(tree)
    unpassed = {}
    for name, rel in WIRING.items():
        params = _parameters(name, rel)
        missing = [
            p
            for i, p in enumerate(params)
            if i >= visitor.positional[name] and p not in visitor.keywords
        ]
        if missing:
            unpassed[name] = missing
    assert not unpassed, f"parameters no caller passes: {unpassed}"
