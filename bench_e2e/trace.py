"""In-memory spans around each layer's public callables, for the traced round.

A span records name (``<layer>.<what>``), wall start/end, the CPU time its
thread burnt between them, the span that caused it, the span enclosing it on
its own thread, and the op it belongs to.  Wrappers are installed by
``setattr`` for one round and removed afterwards; nothing under ``src/`` is
edited.

*Self time* is a span's duration minus the part its children on the same
thread cover.  It is kept on two clocks.  Wall self time is what a caller
waited.  CPU self time (``time.thread_time``) is what the layer computed: the
system is GIL-bound and runs every query on a fresh thread pool, so four
workers each "take" the whole wall interval they share, and only CPU time
adds up to the op without counting an interval four times.  Threads and pool
tasks started during an op get their own spans, caused by the span that
started them, so work done off the calling thread is still attributed to the
layer whose code runs it.
"""

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    #: the span that caused this one (on another thread for thread/task spans)
    parent: int | None
    #: the span enclosing this one on the same thread (self time subtracts here)
    within: int | None
    op: int | None
    thread: int
    t0: float
    c0: float
    t1: float = 0.0
    c1: float = 0.0


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """``{span id: (wall self seconds, cpu self seconds)}``."""
    covered_wall: dict = defaultdict(float)
    covered_cpu: dict = defaultdict(float)
    for s in spans:
        if s.within is not None:
            covered_wall[s.within] += s.t1 - s.t0
            covered_cpu[s.within] += s.c1 - s.c0
    return {
        s.id: (s.t1 - s.t0 - covered_wall[s.id], s.c1 - s.c0 - covered_cpu[s.id])
        for s in spans
    }


def _layer_of(fn) -> str:
    """``repro.<layer>`` of the code a thread or pool task runs."""
    fn = getattr(fn, "func", fn)  # functools.partial
    parts = (getattr(fn, "__module__", None) or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "process"


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.notes: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self._started: list[threading.Thread] = []

    # ------------------------------------------------------------------ spans

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Span | None = None, op: int | None = None):
        """Open a span; ``parent`` overrides the enclosing span as the cause."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        within = stack[-1] if stack else None
        cause = parent or within
        span = Span(
            id=next(self._ids),
            name=name,
            parent=cause.id if cause else None,
            within=within.id if within else None,
            op=op if op is not None else (cause.op if cause else None),
            thread=threading.get_ident(),
            t0=time.perf_counter(),
            c0=time.thread_time(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.c1 = time.thread_time()
            span.t1 = time.perf_counter()
            # Not always the top: a generator span (see wrap) can be closed
            # late, after spans opened beneath it have gone.
            stack.remove(span)
            self.spans.append(span)

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    # --------------------------------------------------------------- wrappers

    def _replace(self, owner, attr: str, replacement) -> None:
        had, raw = attr in vars(owner), vars(owner).get(attr)
        setattr(owner, attr, replacement)
        self._undo.append(
            (lambda: setattr(owner, attr, raw)) if had else (lambda: delattr(owner, attr))
        )

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr`` (class or instance)."""
        if owner is None:
            self.notes.append(f"span {name}: target .{attr} no longer exists")
            return
        original = getattr(owner, attr)

        def drain(generator):
            with self.span(name):
                yield from generator

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            # A table UDF's process_partition is a generator: its work happens
            # while the executor drains it, so the span has to cover the drain.
            return drain(result) if inspect.isgenerator(result) else result

        self._replace(owner, attr, traced)

    def wrap_count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without a span (too hot for one)."""
        if owner is None or not hasattr(owner, attr):
            self.notes.append(f"count {key}: target .{attr} no longer exists")
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count(key)
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def wrap_threads(self) -> None:
        """Give every thread and pool task started from now on its own span,
        caused by the span that started it; count thread starts."""
        tracer = self
        start, submit = threading.Thread.start, ThreadPoolExecutor.submit

        def traced_start(thread):
            tracer.count("process.thread_starts")
            cause = tracer.current()
            run = thread.run
            name = f"{_layer_of(getattr(thread, '_target', None) or type(thread))}.thread"

            def traced_run():
                with tracer.span(name, parent=cause):
                    run()

            thread.run = traced_run
            tracer._started.append(thread)
            return start(thread)

        def traced_submit(pool, fn, /, *args, **kwargs):
            cause = tracer.current()
            name = f"{_layer_of(fn)}.task"

            def task(*a, **k):
                with tracer.span(name, parent=cause):
                    return fn(*a, **k)

            return submit(pool, task, *args, **kwargs)

        self._replace(threading.Thread, "start", traced_start)
        self._replace(ThreadPoolExecutor, "submit", traced_submit)

    def uninstall(self, join_timeout: float = 1.0) -> None:
        """Remove every wrapper, then let threads the ops started finish so
        their spans are closed (long-lived ones are left running, unspanned)."""
        while self._undo:
            self._undo.pop()()
        deadline = time.perf_counter() + join_timeout
        for thread in self._started:
            thread.join(max(0.0, deadline - time.perf_counter()))
        self._started.clear()

    # ---------------------------------------------------------------- results

    def summary(self, ops: set[int]) -> dict:
        """Per span name, totals over the spans of ``ops``:
        ``{name: {"calls", "wall_s", "self_wall_s", "self_cpu_s"}}``."""
        spans = [s for s in list(self.spans) if s.op in ops]
        selfs = self_times(spans)
        out: dict = defaultdict(lambda: dict(calls=0, wall_s=0.0, self_wall_s=0.0, self_cpu_s=0.0))
        for s in spans:
            row = out[s.name]
            row["calls"] += 1
            row["wall_s"] += s.t1 - s.t0
            row["self_wall_s"] += selfs[s.id][0]
            row["self_cpu_s"] += selfs[s.id][1]
        return dict(out)

    def write(self, path, **extra) -> None:
        with open(path, "w") as f:
            json.dump(
                dict(extra, notes=self.notes, counts=dict(self.counts),
                     spans=[asdict(s) for s in list(self.spans)]),
                f,
            )
            f.write("\n")
