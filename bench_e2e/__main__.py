"""Command line of the benchmark.

``python3 -m bench_e2e --workload W --seed N --seconds S --trace 0|1``
    one run of one workload, as the driver of ``BENCHMARK.json`` calls it;
    the last line of stdout is the result object.
``python3 -m bench_e2e --seed 7``
    all five workloads, rounds interleaved, then a traced round of each;
    prints every metric and writes ``bench_e2e/out/results_seed7.json``.
``python3 -m bench_e2e compare A.json B.json``
    verdict per (workload, end-to-end metric); exit 1 if any regressed.
``python3 -m bench_e2e --smoke``
    1 round x 3 ops of every workload, traced too; publishes nothing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_e2e import OUT_DIR, ROOT, metrics, stats
from bench_e2e.workloads import WORKLOADS

ROUNDS = 3
#: ``op_s_tail``; lowered only if a run leaves fewer than ten samples beyond it
TAIL_PERCENTILE = 70
MEDIAN_OF_ROUNDS = {"setup_s", "peak_rss_mb"}
#: BENCHMARK.json ``run_seconds``; also the default of the all-workloads mode
RUN_SECONDS = 18
ROUND_TIMEOUT_S = 150


def run_round(workload: str, seed: int, seconds=None, ops=None, traced=False, pin=True) -> dict:
    """One round in a fresh interpreter; returns the object it printed.

    ``PYTHONHASHSEED=0`` because hash partitioning (and with it every byte
    total in the ledger) depends on it.
    """
    cmd = [sys.executable, "-m", "bench_e2e.round", "--workload", workload, "--seed", str(seed)]
    cmd += ["--ops", str(ops)] if ops is not None else ["--seconds", repr(float(seconds))]
    cmd += ["--traced"] * traced + ["--no-pin"] * (not pin)
    done = subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict]) -> dict:
    """``{metric: {"value", "unit", "rounds"}}`` from the rounds of one workload.

    Interference on a shared machine only ever slows a round down, for
    seconds to minutes at a time, so a timing metric reports its *least
    disturbed round* (each round's value already being a median over its
    ops); ``setup_s`` and ``peak_rss_mb`` report the median of the rounds.
    The tail takes its shape from all rounds and its level from the best
    one: p70 of every op's time relative to its own round's median, times
    the best round's median.
    """
    medians = [statistics.median(r["samples"]) for r in rounds]
    relative = [s / med for r, med in zip(rounds, medians) for s in r["samples"]]
    tail_p = stats.tail_percentile(len(relative), TAIL_PERCENTILE)
    per_round = {
        "setup_s": [r["setup_s"] for r in rounds],
        "op_s_p50": medians,
        "op_s_tail": [float(np.percentile(r["samples"], tail_p)) for r in rounds],
        "records_per_s": [r["records"] / r["wall_s"] for r in rounds],
        "cpu_s_per_op": [r["cpu_s"] / len(r["samples"]) for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    pick = {"lower": min, "higher": max}
    out = {
        name: {
            "value": (statistics.median if name in MEDIAN_OF_ROUNDS else pick[better])(per_round[name]),
            "unit": unit,
            "rounds": per_round[name],
        }
        for name, unit, better, _bound, _meaning in metrics.END_TO_END
    }
    out["op_s_tail"].update(
        value=min(medians) * float(np.percentile(relative, tail_p)),
        tail_percentile=tail_p,
        samples=len(relative),
    )
    return out


def per_layer(name: str, seed: int, seconds=None, ops=None) -> tuple[list, dict, list]:
    """The rounds behind the per-layer metrics — a traced one and a short
    unpinned one — then ``(rounds, {metric: {"value", "unit"}}, notes)`` with
    every declared metric; one the rounds did not produce is 0, and noted."""
    traced = run_round(name, seed, traced=True, ops=ops, seconds=seconds and seconds / 3)
    unpinned = run_round(name, seed, pin=False, ops=ops, seconds=seconds and seconds / 6)
    values, notes = dict(traced["per_layer"]), list(traced["notes"])
    if unpinned["samples"] and traced["samples"]:
        values["process.multicore_penalty"] = (
            statistics.median(unpinned["samples"]) / statistics.median(traced["samples"]) - 1.0
        )
    out = {}
    for metric, unit, _better, _kind, _moves in metrics.PER_LAYER:
        if metric not in values:
            notes.append(f"{metric}: not measured, reported as 0")
        out[metric] = {"value": float(values.get(metric, 0.0)), "unit": unit}
    return [traced, unpinned], out, notes


def failures_of(rounds: list[dict]) -> tuple[int, list]:
    return sum(r["attempted"] for r in rounds), [f for r in rounds for f in r["failures"]]


def print_metrics(title: str, values: dict) -> None:
    print(f"--- {title}")
    for name, entry in values.items():
        extra = f"  (p{entry['tail_percentile']} of {entry['samples']} ops)" if "samples" in entry else ""
        print(f"{name:<30} {entry['value']:>16.6g} {entry['unit']}{extra}")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def result_line(attempted: int, failures: list, values: dict) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": e["value"], "unit": e["unit"]} for n, e in values.items()},
    })


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The contract's entry point: one workload, one result line."""
    env = environment()
    if trace:
        rounds, values, notes = per_layer(name, seed, seconds=seconds)
    else:
        rounds = [run_round(name, seed, seconds=seconds / ROUNDS) for _ in range(ROUNDS)]
        values, notes = end_to_end(rounds), []
    attempted, failures = failures_of(rounds)
    env["loadavg_end"] = list(os.getloadavg())
    print(f"environment: {json.dumps(env)}  pinned_cpu: {rounds[0]['pinned_cpu']}")
    print_metrics(f"{name} seed {seed} ({'per layer, traced' if trace else 'end to end'})", values)
    for line in notes + failures:
        print(f"note: {line}")
    print(result_line(attempted, failures, values))
    return 0


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, rounds interleaved (A B C D E, A B C D E, ...) so that a
    slow minute of the machine lands on all workloads alike."""
    env = environment()
    rounds = {name: [] for name in WORKLOADS}
    for _ in range(1 if smoke else ROUNDS):
        for name in WORKLOADS:
            rounds[name].append(
                run_round(name, seed, ops=3) if smoke
                else run_round(name, seed, seconds=seconds / ROUNDS)
            )
    doc = {"seed": seed, "run_seconds": seconds, "environment": env, "workloads": {}}
    problems = []
    for name in WORKLOADS:
        layer_rounds, layer_values, notes = (
            per_layer(name, seed, ops=3) if smoke else per_layer(name, seed, seconds=seconds)
        )
        e2e = end_to_end(rounds[name])
        attempted, failures = failures_of(rounds[name] + layer_rounds)
        problems += [f"{name}: {f}" for f in failures]
        print_metrics(f"{name}: end to end", e2e)
        print_metrics(f"{name}: per layer", layer_values)
        for line in notes + failures:
            print(f"note: {line}")
        doc["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": layer_values,
            "attempted": attempted,
            "failed": len(failures),
            "notes": notes,
            "weights": rounds[name][0]["weights"],
            "sim_s_per_op": rounds[name][0]["sim_s_per_op"],
        }
    problems += cross_checks(doc["workloads"])
    env["loadavg_end"] = list(os.getloadavg())
    for line in problems:
        print(f"FAILED: {line}")
    if not smoke:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"results_seed{seed}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 1 if problems else 0


def cross_checks(workloads: dict) -> list[str]:
    """What only shows across workloads: the three connection strategies train
    the same model, and Figure 3's ordering holds in simulated seconds."""
    problems = []
    same_model = [workloads[n]["weights"] for n in ("stream_rows", "stream_columnar", "naive_dfs")]
    if not all(np.allclose(w, same_model[0], rtol=1e-9, atol=0.0) for w in same_model):
        problems.append(f"model weights differ across connection strategies: {same_model}")
    naive, stream = (workloads[n]["sim_s_per_op"] for n in ("naive_dfs", "stream_rows"))
    if not naive > stream:
        problems.append(f"Figure 3 ordering violated: sim(naive)={naive} <= sim(insql+stream)={stream}")
    return problems


def run_compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    table = [dict(name=n, unit=u, better=bt, bound=bd) for n, u, bt, bd, _m in metrics.END_TO_END]
    lines, regressed = stats.compare(a, b, table)
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench_e2e compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return run_compare(args.a, args.b)
    parser = argparse.ArgumentParser(prog="bench_e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_all(args.seed, args.seconds, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
