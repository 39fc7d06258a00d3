"""The closed-loop driver: clients that each wait for their op's result."""

import itertools
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

#: an op slower than this counts as failed, whatever it returned
OP_TIMEOUT_S = 60.0


@dataclass
class Phase:
    """Everything measured over one closed-loop run of ops."""

    samples: list = field(default_factory=list)  # seconds per successful op
    observations: list = field(default_factory=list)  # what each of them delivered
    failures: list = field(default_factory=list)
    attempted: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_ids: list = field(default_factory=list)

    def total(self, field_name: str) -> float:
        """Sum of one numeric ``Observation`` field over the successful ops."""
        return sum(getattr(o, field_name) for o in self.observations)

    def stage_s(self, key: str) -> float:
        return sum(o.stages.get(key, 0.0) for o in self.observations)

    @property
    def weights(self) -> list:
        return self.observations[0].weights if self.observations else []


def run_ops(session, workload, op_ids, seconds=None, ops=None, tracer=None) -> Phase:
    """Closed loop: each client starts its next op when its previous one is
    checked.  Stops after ``ops`` ops, or once ``seconds`` have passed."""
    phase = Phase()
    lock = threading.Lock()
    started = time.perf_counter()
    budget = itertools.count()

    def client() -> None:
        while True:
            if ops is not None and next(budget) >= ops:
                return
            if ops is None and time.perf_counter() - started >= seconds:
                return
            i = next(op_ids)
            problems, obs, elapsed = [], None, 0.0
            try:
                t0 = time.perf_counter()
                if tracer is None:
                    result = session.op(i)
                else:
                    with tracer.span("integration.op", op=i):
                        result = session.op(i)
                elapsed = time.perf_counter() - t0
                obs = session.observe(result)
                problems = list(obs.problems)
                if elapsed > OP_TIMEOUT_S:
                    problems.append(f"took {elapsed:.1f} s (limit {OP_TIMEOUT_S} s)")
            except Exception as exc:  # an op that raises is a failed op, not a crash
                traceback.print_exc(file=sys.stderr)
                problems.append(f"raised {type(exc).__name__}: {exc}")
            with lock:
                phase.attempted += 1
                phase.op_ids.append(i)
                if obs is not None and obs.weights != (phase.weights or obs.weights):
                    problems.append("weights differ from the first op's")
                if problems:
                    phase.failures.append(f"op {i}: " + "; ".join(problems))
                    continue
                phase.samples.append(elapsed)
                phase.observations.append(obs)

    cpu0 = time.process_time()
    if workload.clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(workload.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    phase.wall_s = time.perf_counter() - started
    phase.cpu_s = time.process_time() - cpu0
    return phase
