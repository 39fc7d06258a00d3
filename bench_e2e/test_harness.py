"""Self-tests of the benchmark harness: ``python3 -m pytest bench_e2e``.

Outside the tier-1 ``testpaths`` on purpose: they test the measuring
instrument, not the system.
"""

import json
import re
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from bench_e2e import OUT_DIR, ROOT, adapter, datagen, metrics, reference, stats
from bench_e2e.__main__ import RUN_SECONDS, main
from bench_e2e.trace import Span, Tracer, self_times
from bench_e2e.workloads import WORKLOADS

# ------------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "n, cap, expected",
    [(36, 70, 70), (2400, 70, 70), (30, 70, 66), (1200, 99, 99), (500, 99, 98), (15, 99, 50), (0, 99, 50)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, cap, expected):
    assert stats.tail_percentile(n, cap) == expected


@pytest.mark.parametrize("n", [20, 33, 36, 57, 400, 1234])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    p = stats.tail_percentile(n, 99)
    samples = [float(i) for i in range(n)]
    beyond = sum(s > np.percentile(samples, p) for s in samples)
    assert beyond >= 10
    if p < 99:  # one percentile higher would leave fewer than ten
        assert n * (100 - (p + 1)) / 100 < 10


# ------------------------------------------------------------------------ spans


def _span(id, name, within, t0, t1, c0, c1, parent=None, thread=1):
    return Span(id=id, name=name, parent=parent or within, within=within, op=0,
                thread=thread, t0=t0, c0=c0, t1=t1, c1=c1)


def test_self_time_is_duration_minus_same_thread_children():
    spans = [
        _span(1, "integration.op", None, 0.0, 10.0, 0.0, 8.0),
        _span(2, "sql.execute", 1, 2.0, 5.0, 1.0, 3.5),
        _span(3, "sql.plan", 2, 3.0, 4.0, 2.0, 2.5),
        _span(4, "transfer.wait_result", 1, 6.0, 9.0, 4.0, 4.1),
        # caused by span 2 but running on another thread: covers none of it
        _span(5, "sql.task", None, 2.5, 4.5, 0.0, 1.5, parent=2, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx((10 - 3 - 3, 8 - 2.5 - 0.1))
    assert selfs[2] == pytest.approx((3 - 1, 2.5 - 0.5))
    assert selfs[3] == pytest.approx((1.0, 0.5))
    assert selfs[5] == pytest.approx((2.0, 1.5))
    # CPU self times add up to the CPU burnt on all threads
    assert sum(cpu for _wall, cpu in selfs.values()) == pytest.approx(8.0 + 1.5)


class _Layer:
    def work(self, n):
        return sum(range(n))

    def rows(self, n):
        yield from range(n)


def test_tracer_wraps_restores_and_links_threads():
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "sql.execute")
    tracer.wrap(_Layer, "rows", "transform.udf")
    tracer.wrap(None, "gone", "columnar.gone")
    tracer.wrap_threads()
    layer = _Layer()
    with tracer.span("integration.op", op=7):
        assert layer.work(10) == 45
        assert list(layer.rows(3)) == [0, 1, 2]  # generator drained inside a span
        worker = threading.Thread(target=layer.work, args=(5,))
        worker.start()
        worker.join()
    tracer.uninstall()
    assert "work" in vars(_Layer) and _Layer.work.__name__ == "work"
    assert not hasattr(_Layer.work, "__wrapped__")
    assert threading.Thread.start.__qualname__ == "Thread.start"
    by_name = {s.name: s for s in tracer.spans}
    root = by_name["integration.op"]
    thread_span = by_name["process.thread"]
    assert thread_span.parent == root.id and thread_span.within is None
    assert all(s.op == 7 for s in tracer.spans)
    assert tracer.counts["process.thread_starts"] == 1
    assert any("columnar.gone" in note for note in tracer.notes)
    summary = tracer.summary({7})
    assert summary["sql.execute"]["calls"] == 2  # main thread + worker thread
    assert summary["transform.udf"]["calls"] == 2  # the call and the drain


# ---------------------------------------------------------------------- compare

_LOWER = dict(name="op_s_p50", unit="s", better="lower", bound=0.10)
_HIGHER = dict(name="records_per_s", unit="records/s", better="higher", bound=0.10)


def _entry(*rounds):
    return {"value": float(np.median(rounds)), "rounds": list(rounds)}


def test_compare_verdicts():
    base = _entry(1.00, 1.01, 0.99)
    assert stats.verdict(_LOWER, base, _entry(1.04, 1.05, 1.03))[0] == "ok"
    assert stats.verdict(_LOWER, base, _entry(1.20, 1.21, 1.19))[0] == "regressed"
    # rounds 30% apart cannot resolve a 10% bound
    assert stats.verdict(_LOWER, base, _entry(0.90, 1.05, 1.20))[0] == "unresolved"
    # ... unless every round is worse than every round of the parent
    assert stats.verdict(_LOWER, base, _entry(1.30, 1.50, 1.70))[0] == "regressed"
    assert stats.verdict(_LOWER, base, _entry(0.50, 0.60, 0.70))[0] == "ok"
    # higher is better: a drop is the regression
    assert stats.verdict(_HIGHER, _entry(100, 101, 99), _entry(80, 81, 79))[0] == "regressed"
    assert stats.verdict(_HIGHER, _entry(100, 101, 99), _entry(120, 121, 119))[0] == "ok"


def test_compare_command_exit_code(tmp_path, capsys):
    def results(p50):
        e2e = {name: _entry(1.0, 1.0, 1.0) for name, *_ in metrics.END_TO_END}
        e2e["op_s_p50"] = _entry(p50, p50, p50)
        return {"workloads": {"stream_rows": {"end_to_end": e2e}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results(1.0)))
    b.write_text(json.dumps(results(1.3)))
    assert main(["compare", str(a), str(a)]) == 0
    assert main(["compare", str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out


# ---------------------------------------------------------------------- adapter


def test_adapter_passes_only_knobs_the_factory_still_has():
    def today(block_size=1, columnar=False, transport="memory", max_concurrent_sessions=1):
        pass

    def after_roadmap_items_2_and_4(block_size=1):
        pass

    knobs = dict(block_size=8, columnar=True, transport="socket", max_concurrent_sessions=4)
    assert adapter.supported_knobs(knobs, today) == knobs
    assert adapter.supported_knobs(knobs, after_roadmap_items_2_and_4) == {"block_size": 8}
    assert adapter.supported_knobs(knobs) == knobs  # the real make_deployment, at this commit


def test_lookup_returns_none_for_deleted_targets():
    assert adapter.lookup("repro.transfer.buffers:encode_block") is not None
    assert adapter.lookup("repro.transfer.buffers:no_such_encoder") is None
    assert adapter.lookup("repro.no_such_layer:anything") is None


# -------------------------------------------------------------------- reference


def test_reference_catches_planted_corruption():
    data = datagen.generate_retail(seed=7)
    expected = reference.retail_expected(data, "prep", iterations=10)
    assert expected.records == 8000
    assert reference.check(expected, expected) == []

    one_record_lost = replace(expected, records=expected.records - 1)
    assert any("record count" in p for p in reference.check(one_record_lost, expected))

    one_cent_off = replace(expected, x_sums=expected.x_sums + np.array([0, 0, 0, 0.01]))
    assert any("column sums" in p for p in reference.check(one_cent_off, expected))

    wrong_model = replace(expected, weights=expected.weights * (1 + 1e-6))
    assert any("weights" in p for p in reference.check(wrong_model, expected))

    flipped_label = replace(expected, y_sum=expected.y_sum + 1)
    assert any("label sum" in p for p in reference.check(flipped_label, expected))


def test_generator_depends_on_the_seed_alone_and_sizes_on_nothing():
    a, b, c = (datagen.generate_retail(seed=s) for s in (3, 3, 4))
    assert np.array_equal(a.amounts, b.amounts) and a.created == b.created
    assert not np.array_equal(a.amounts, c.amounts)
    for data in (a, c):  # every seed selects the same number of rows per query leg
        sizes = [reference.retail_expected(data, leg, 1).records
                 for leg in ("prep", "subset", "recode_reuse")]
        assert sizes == [8000, 4000, 4000]


# --------------------------------------------------------------------- manifest

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_declared_metrics_and_the_contract():
    path = ROOT / "BENCHMARK.json"
    doc = json.loads(path.read_text())
    assert doc == metrics.benchmark_json(WORKLOADS.values(), RUN_SECONDS)
    assert path.stat().st_size <= 64 * 1024
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128 and 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(set(names)) == len(names) and all(_NAME.match(n) for n in names)
    assert all(_UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in doc[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # all runs of the driver, with set-up, inside its time cap (30 s a run)
    assert (4 + 22 * len(doc["workloads"])) * 30 <= 3420


# ------------------------------------------------------------------------ smoke


def test_smoke_run_checks_every_workload_and_publishes_nothing():
    before = {p.name for p in OUT_DIR.glob("results_*.json")}
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--smoke"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    assert "FAILED" not in done.stdout
    for name in WORKLOADS:
        assert f"--- {name}: end to end" in done.stdout
    for name, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert name in done.stdout
    assert {p.name for p in OUT_DIR.glob("results_*.json")} == before
