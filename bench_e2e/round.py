"""One round of one workload, in a fresh process: set up, warm up, measure.

Run by ``bench_e2e.__main__`` as ``python -m bench_e2e.round``; prints one
JSON object as the last line of stdout.  A plain round measures untraced ops
for a fixed time (or op count).  A traced round measures an untraced phase,
then the same phase with the span wrappers installed, then runs the direct
probes — its numbers feed only the per-layer metrics.
"""

import time

# Taken before the other imports: set-up time includes importing the system.
_PROCESS_START = time.perf_counter()

import argparse
import itertools
import json
import os
import resource
import sys


def pin_to_one_cpu() -> int | None:
    """Pin this process to one core; returns it, or ``None`` if not possible.

    The system is GIL-bound, so a second core adds no throughput, only lock
    hand-offs whose cost depends on where the kernel happens to place the
    threads: unpinned, the same op varies by 15% from run to run and the
    sessions workload runs at half the speed (bench_e2e/README.md, Noise).
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.round")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--no-pin", action="store_true")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.ops is None):
        parser.error("give exactly one of --seconds and --ops")

    pinned = None if args.no_pin else pin_to_one_cpu()
    from bench_e2e import OUT_DIR
    from bench_e2e.loop import run_ops
    from bench_e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    op_ids = itertools.count()
    session = workload.make(args.seed)
    warm = run_ops(session, workload, op_ids, ops=workload.warmup_ops)
    setup_s = time.perf_counter() - _PROCESS_START

    if args.traced:
        seconds = None if args.seconds is None else args.seconds / 2
        base = run_ops(session, workload, op_ids, seconds=seconds, ops=args.ops)
        from bench_e2e import layers

        traced, per_layer, notes = layers.traced_phase(
            session, workload, op_ids, base, seconds=seconds, ops=args.ops,
            trace_path=OUT_DIR / f"trace_{workload.name}.json",
        )
        phases = [warm, base, traced]
    else:
        base = run_ops(session, workload, op_ids, seconds=args.seconds, ops=args.ops)
        per_layer, notes, phases = {}, [], [warm, base]

    out = {
        "workload": workload.name,
        "seed": args.seed,
        "pinned_cpu": pinned,
        "setup_s": setup_s,
        "samples": base.samples,
        "records": base.total("records"),
        "wall_s": base.wall_s,
        "cpu_s": base.cpu_s,
        "sim_s_per_op": base.total("sim_s") / max(len(base.samples), 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(p.attempted for p in phases),
        "failures": [f for p in phases for f in p.failures],
        "weights": base.weights,
        "per_layer": per_layer,
        "notes": notes,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
