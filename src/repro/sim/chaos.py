"""Chaos exploration over virtual time: schedule search, replay, shrinking.

The §6 fault machinery answers "does the stack survive fault X at point Y?"
one hand-written test at a time.  This module turns that into a *search*:

* a :class:`FaultSchedule` is a small, JSON-serializable list of
  :class:`FaultAction` items — deterministic kills, lease expiries,
  handshake drops, seeded drop/stall rates — that compiles down to one
  :class:`~repro.faults.injector.FaultConfig`;
* :class:`ChaosExplorer` runs a fixed serving scenario (an HA deployment
  driven by concurrent loadgen clients) under a
  :class:`~repro.sim.clock.VirtualClock`, so a schedule full of 30-second
  stalls and retry backoffs costs milliseconds of wall time and the run is
  a pure function of ``(scenario, schedule)``;
* after each run it checks the serving plane's standing **invariants** —
  no wedged threads, only typed outcomes, ledger conservation, and
  bit-identical weights for completed sessions versus solo re-runs;
* a failing schedule is **shrunk** by ddmin to a minimal action list that
  still violates an invariant, and persists as replayable JSON
  (:meth:`FaultSchedule.to_json` / :meth:`ChaosExplorer.replay`).

Wall time appears in exactly two places, both harness-side: the per-run
watchdog that declares a wedge when client threads fail to join, and the
exploration wall budget.  Everything inside the system under test is
virtual.
"""

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

from repro.common.rng import derive_seed_stable, make_rng
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.clock import VirtualClock

#: Coordinator failover points a schedule may target (see
#: :class:`~repro.faults.injector.FaultConfig`).
FAILOVER_POINTS = (
    "create_session",
    "pre_registration",
    "split_plan",
    "post_split_plan",
    "matchmaking",
    "mid_stream",
    "result",
)

#: Action kinds understood by :meth:`FaultSchedule.to_config`.
ACTION_KINDS = (
    "kill_sql",  # site=worker id, at=rows streamed
    "kill_ml",  # site=reader index, at=rows read
    "kill_train",  # at=iteration boundary
    "kill_coordinator",  # site=failover point, at=skip count
    "lease_expire",  # site=failover point, at=skip count
    "handshake_drop",  # site=failover point
    "send_drop",  # rate (per-site seeded stream)
    "send_stall",  # rate + seconds (virtual)
    "dfs_corrupt",  # rate — replica bit rot at write time (read-detectable)
    "dfs_read_error",  # rate — transient replica read failures
    "dfs_kill_datanode",  # site=datanode index, at=block ops before death
    "dfs_enospc",  # rate — full-disk windows at replica/spill write sites
)


class InvariantViolation(AssertionError):
    """A chaos run broke a serving-plane invariant (see the run's list)."""


@dataclass(frozen=True)
class FaultAction:
    """One fault in a schedule.  Field meaning depends on ``kind``:

    ========= =============================== ======================
    kind      site                            at / rate / seconds
    ========= =============================== ======================
    kill_sql  SQL worker id (as str)          at = rows streamed
    kill_ml   ML reader index (as str)        at = rows read
    kill_train —                              at = iteration
    kill_coordinator / lease_expire /
    handshake_drop
              failover point name             at = skip count
    send_drop —                               rate
    send_stall —                              rate, seconds
    ========= =============================== ======================

    Rate-driven actions carry **no global event budget**: a shared budget
    counter is consumed in thread-arrival order, which would make the
    injected-event set depend on interleaving.  Per-site seeded RNG streams
    plus finite per-site traffic keep unbudgeted rates both terminating and
    replay-deterministic.
    """

    kind: str
    site: str = ""
    at: int = 0
    rate: float = 0.0
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind in ("kill_sql", "kill_ml"):
            return f"{self.kind}[{self.site}]@{self.at}rows"
        if self.kind == "kill_train":
            return f"kill_train@iter{self.at}"
        if self.kind in ("kill_coordinator", "lease_expire", "handshake_drop"):
            return f"{self.kind}@{self.site}+{self.at}"
        if self.kind == "send_stall":
            return f"send_stall(p={self.rate:g},{self.seconds:g}s)"
        if self.kind == "dfs_kill_datanode":
            return f"dfs_kill_datanode[{self.site}]@{self.at}ops"
        return f"{self.kind}(p={self.rate:g})"


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, ordered set of fault actions; compiles to one FaultConfig.

    ``seed`` drives every probabilistic site (per-site RNG streams), so a
    schedule replays identically run after run.  Deterministic actions
    (kills at logical points) are interleaving-independent by construction.
    """

    seed: int = 0
    actions: tuple = ()

    def subset(self, actions) -> "FaultSchedule":
        return FaultSchedule(seed=self.seed, actions=tuple(actions))

    def to_config(self) -> FaultConfig:
        kill_at: dict[int, int] = {}
        kill_ml_at: dict[int, int] = {}
        fields: dict = {}
        for a in self.actions:
            if a.kind == "kill_sql":
                kill_at.setdefault(int(a.site), a.at)
            elif a.kind == "kill_ml":
                kill_ml_at.setdefault(int(a.site), a.at)
            elif a.kind == "kill_train":
                fields.setdefault("kill_train_at", max(1, a.at))
            elif a.kind == "kill_coordinator":
                fields.setdefault("kill_coordinator_at", a.site)
                fields.setdefault("coordinator_kill_skip", a.at)
            elif a.kind == "lease_expire":
                fields.setdefault("lease_expire_at", a.site)
                fields.setdefault("lease_expire_skip", a.at)
            elif a.kind == "handshake_drop":
                fields.setdefault("handshake_drop_at", a.site)
            elif a.kind == "send_drop":
                fields["send_drop_rate"] = max(fields.get("send_drop_rate", 0.0), a.rate)
            elif a.kind == "send_stall":
                fields["send_stall_rate"] = max(
                    fields.get("send_stall_rate", 0.0), a.rate
                )
                fields["stall_seconds"] = max(fields.get("stall_seconds", 0.0), a.seconds)
            elif a.kind == "dfs_corrupt":
                fields["dfs_replica_corrupt_rate"] = max(
                    fields.get("dfs_replica_corrupt_rate", 0.0), a.rate
                )
            elif a.kind == "dfs_read_error":
                fields["dfs_read_error_rate"] = max(
                    fields.get("dfs_read_error_rate", 0.0), a.rate
                )
            elif a.kind == "dfs_kill_datanode":
                fields.setdefault("dfs_kill_datanode", int(a.site))
                fields.setdefault("dfs_kill_datanode_after", a.at)
            elif a.kind == "dfs_enospc":
                fields["dfs_enospc_rate"] = max(
                    fields.get("dfs_enospc_rate", 0.0), a.rate
                )
        return FaultConfig(
            seed=self.seed,
            kill_at=kill_at,
            kill_ml_at=kill_ml_at,
            # Per-session one-shot kills: under concurrent sessions the
            # default global one-shot hands the kill to whichever session
            # crosses the threshold first, which is a thread race.
            scoped_kills=True,
            **fields,
        )

    # ------------------------------------------------------------- (de)serde

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {"seed": self.seed, "actions": [asdict(a) for a in self.actions]},
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        doc = json.loads(text)
        return cls(
            seed=int(doc.get("seed", 0)),
            actions=tuple(FaultAction(**a) for a in doc.get("actions", ())),
        )

    def describe(self) -> str:
        if not self.actions:
            return f"seed={self.seed} (fault-free)"
        return f"seed={self.seed} " + " + ".join(a.describe() for a in self.actions)


@dataclass(frozen=True)
class ChaosScenario:
    """The fixed system under test: an HA serving deployment plus its load.

    Small by design — each exploration round builds a fresh deployment, so
    the scenario must stay in the tens-of-milliseconds range per run.
    """

    num_sessions: int = 3
    num_workers: int = 2
    workers_per_node: int = 2
    ha_standbys: int = 1
    max_concurrent_sessions: int = 4
    deadline_s: float | None = 120.0  # virtual seconds, generous
    iterations: int = 3
    base_seed: int = 1000  # session i trains with seed base_seed + i
    #: Storage-chaos mode: the training table lives on the DFS as external
    #: CSV part files (so ``dfs_*`` faults actually bite the workload), the
    #: sampler draws storage actions too, and the harness runs quiescence
    #: repair + fsck with their standing invariants after every run.
    dfs_table: bool = False
    block_size: int = 4 * 1024 * 1024
    replication: int = 3
    dfs_capacity_bytes: int | None = None

    def session_ids(self) -> list[str]:
        return [f"chaos_{i}" for i in range(self.num_sessions)]

    def build(self, injector, clock):
        from repro import make_deployment

        return make_deployment(
            num_workers=self.num_workers,
            workers_per_node=self.workers_per_node,
            ha_standbys=self.ha_standbys,
            max_concurrent_sessions=self.max_concurrent_sessions,
            fault_injector=injector,
            clock=clock,
            block_size=self.block_size,
            replication=self.replication,
            dfs_capacity_bytes=self.dfs_capacity_bytes,
        )

    def make_table(self, deployment) -> None:
        """Create the shared ``points`` table this scenario trains on."""
        from repro.workloads.loadgen import make_points_table, make_points_table_dfs

        if self.dfs_table:
            make_points_table_dfs(deployment.engine, deployment.dfs)
        else:
            make_points_table(deployment.engine)


#: Contention telemetry excluded from fingerprints and the fault-free
#: ledger-identity invariant: these counters record how often some thread
#: happened to block — a function of OS scheduling (core count, machine
#: load), not of ``(scenario, schedule)``.  They stay in ``result.ledger``
#: for observability; they just are not part of the determinism contract,
#: exactly like wall latencies.
CONTENTION_COUNTERS = frozenset(
    {"scheduler.waits", "admission.queued"}
)


@dataclass
class ChaosRunResult:
    """One schedule's run: outcomes, ledger, injected events, verdict."""

    schedule: FaultSchedule
    outcomes: list = field(default_factory=list)  # dicts, session_id-sorted
    ledger: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # sorted [kind, site] pairs
    violations: list = field(default_factory=list)
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def fingerprint(self) -> str:
        """Canonical digest of everything a deterministic replay must
        reproduce: outcomes (identity, error type, exact weights), the
        byte ledger, and the injected-fault multiset.  Wall-side noise
        (latencies, wall_seconds, poll counts) and the
        :data:`CONTENTION_COUNTERS` are deliberately excluded."""
        doc = {
            "outcomes": self.outcomes,
            "ledger": {
                k: v for k, v in self.ledger.items() if k not in CONTENTION_COUNTERS
            },
            "events": self.events,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def raise_for_violations(self) -> None:
        if self.violations:
            raise InvariantViolation(
                f"schedule [{self.schedule.describe()}] violated: "
                + "; ".join(self.violations)
            )


@dataclass
class ExploreReport:
    """Outcome of one bounded schedule search."""

    rounds_requested: int
    rounds_run: int = 0
    wall_seconds: float = 0.0
    runs: list = field(default_factory=list)  # ChaosRunResult
    #: (minimized schedule, its run result) per failing sampled schedule
    failures: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "rounds_requested": self.rounds_requested,
            "rounds_run": self.rounds_run,
            "wall_seconds": self.wall_seconds,
            "failing_schedules": len(self.failures),
            "total_faults_injected": sum(len(r.events) for r in self.runs),
            "virtual_seconds_total": sum(r.virtual_seconds for r in self.runs),
        }


class ChaosExplorer:
    """Sample → run → check invariants → shrink failures to minimal JSON.

    ``base_seed`` seeds schedule *sampling*; each schedule carries its own
    fault seed so a minimized schedule replays without the explorer.
    """

    def __init__(
        self,
        scenario: ChaosScenario | None = None,
        base_seed: int = 0,
        run_wall_cap_s: float = 120.0,
        max_virtual_s: float = 3600.0,
        require_all_complete: bool = False,
    ):
        self.scenario = scenario or ChaosScenario()
        self.base_seed = base_seed
        self.run_wall_cap_s = run_wall_cap_s
        self.max_virtual_s = max_virtual_s
        #: opt-in strict invariant: *every* session must complete.  The
        #: default invariants accept typed failures (that is what graceful
        #: degradation means); CI's shrinking demo plants schedules against
        #: this stricter bar so a genuine minimal cause pops out.
        self.require_all_complete = require_all_complete
        self._solo: dict[int, tuple] | None = None
        self._solo_ingest: int | None = None
        self._baseline_ledger: dict | None = None

    # ------------------------------------------------------------- sampling

    def sample_schedule(self, index: int) -> FaultSchedule:
        """Deterministic schedule #``index`` of this explorer's stream."""
        rng = make_rng(derive_seed_stable(self.base_seed, f"schedule/{index}"))
        sc = self.scenario

        def draw(low: int, high: int) -> int:
            return int(rng.integers(low, high))

        def pick(options):
            return options[draw(0, len(options))]

        k = sc.num_workers * sc.workers_per_node  # ML reader count bound
        # Storage actions only exist in dfs_table scenarios — appended after
        # the base tuple so existing scenarios keep sampling (and therefore
        # fingerprinting) exactly the schedules they always did.
        storage_generators = (
            lambda: FaultAction("dfs_corrupt", rate=pick((0.05, 0.2))),
            lambda: FaultAction("dfs_read_error", rate=pick((0.05, 0.2))),
            # at=0: dead from its first block op — the only op-count trigger
            # that is interleaving-independent under concurrent sessions.
            lambda: FaultAction(
                "dfs_kill_datanode", site=str(draw(0, sc.num_workers)), at=0
            ),
            lambda: FaultAction("dfs_enospc", rate=pick((0.05, 0.2))),
        )
        generators = (
            lambda: FaultAction(
                "kill_sql", site=str(draw(0, sc.num_workers)), at=pick((1, 20, 60))
            ),
            lambda: FaultAction(
                "kill_ml", site=str(draw(0, k)), at=pick((1, 10, 40))
            ),
            lambda: FaultAction("kill_train", at=draw(1, sc.iterations + 1)),
            lambda: FaultAction(
                "kill_coordinator", site=pick(FAILOVER_POINTS), at=draw(0, 3)
            ),
            lambda: FaultAction(
                "lease_expire", site=pick(FAILOVER_POINTS), at=draw(0, 3)
            ),
            lambda: FaultAction("handshake_drop", site=pick(FAILOVER_POINTS)),
            lambda: FaultAction("send_drop", rate=pick((0.05, 0.2, 0.5))),
            lambda: FaultAction(
                "send_stall",
                rate=pick((0.05, 0.2)),
                seconds=pick((0.5, 2.0, 10.0)),  # the virtual-time axis
            ),
        )
        if sc.dfs_table:
            generators = generators + storage_generators
        actions = tuple(pick(generators)() for _ in range(draw(1, 4)))
        return FaultSchedule(
            seed=derive_seed_stable(self.base_seed, f"faults/{index}"), actions=actions
        )

    # ------------------------------------------------------------ execution

    def run(self, schedule: FaultSchedule, check: bool = True) -> ChaosRunResult:
        """Execute one schedule under a fresh VirtualClock deployment."""
        from repro.bench.overload import wedged_threads
        from repro.workloads.loadgen import run_one_session

        start_wall = time.perf_counter()
        clock = VirtualClock(max_virtual_s=self.max_virtual_s)
        injector = FaultInjector(schedule.to_config(), clock=clock)
        deployment = self.scenario.build(injector, clock)
        self.scenario.make_table(deployment)

        sc = self.scenario
        outcomes: list = [None] * sc.num_sessions
        untyped: list[str] = []

        def client(i: int) -> None:
            sid = f"chaos_{i}"
            try:
                outcomes[i] = run_one_session(
                    deployment,
                    sid,
                    seed=sc.base_seed + i,
                    iterations=sc.iterations,
                    deadline_s=sc.deadline_s,
                )
            except BaseException as exc:  # untyped escape = invariant breach
                untyped.append(f"{sid}: {type(exc).__name__}: {exc}")

        threads = [
            clock.spawn(lambda i=i: client(i), name=f"chaos-client-{i}")
            for i in range(sc.num_sessions)
        ]
        # Wall-time watchdog: the only wall clock in the harness.  A healthy
        # run joins in milliseconds; a wedged one trips the cap and the
        # still-alive (daemon) threads are reported, not waited for.
        join_deadline = start_wall + self.run_wall_cap_s
        wedged = []
        for t in threads:
            t.join(max(0.1, join_deadline - time.perf_counter()))
            if t.is_alive():
                wedged.append(t.name)
        if not wedged:
            # Serving-plane stragglers (ml-job threads finishing their last
            # statements) get a real-time grace to unwind.  Generous on
            # purpose: a cleanly exiting thread is observed the moment it
            # dies, so the grace is only ever fully burned by a genuine
            # wedge — while a short grace misfires on loaded single-core
            # CI boxes where a healthy thread can take seconds to get
            # scheduled for its last few statements.
            wedged = wedged_threads(grace_s=15.0, prefixes=("ml-job-", "chaos-client"))
        clock.stats.wedged = sorted(set(wedged) | set(clock.blocked_outside_clock()))

        # Storage quiescence (dfs_table scenarios): pump heartbeats, scrub
        # checksums, and re-replicate until stable, then fsck the namespace.
        # Runs after the workload so repair traffic is a deterministic pure
        # function of the schedule; skipped when wedged (live client threads
        # would race the scanner and nothing downstream is trustworthy).
        storage: dict | None = None
        if self.scenario.dfs_table and not clock.stats.wedged:
            repair = deployment.dfs.repair_until_stable()
            fsck = deployment.dfs.fsck()
            storage = {
                "blocks_scanned": repair.blocks_scanned,
                "corrupt_replicas": repair.corrupt_replicas,
                "repaired_blocks": repair.repaired_blocks,
                "unrecoverable_blocks": sorted(repair.unrecoverable_blocks),
                "under_replicated_after": repair.under_replicated_after,
                "fsck": fsck.summary(),
                "bad_replica_reports": deployment.dfs.namenode.bad_replica_reports,
                "dead_datanode_reports": deployment.dfs.namenode.dead_datanode_reports,
            }

        result = ChaosRunResult(
            schedule=schedule,
            outcomes=[
                {
                    "session_id": o.session_id,
                    "tenant": o.tenant,
                    "seed": o.seed,
                    "error_type": o.error_type,
                    "weights": list(o.weights),
                    "intercept": o.intercept,
                }
                for o in sorted(
                    (o for o in outcomes if o is not None),
                    key=lambda o: o.session_id,
                )
            ],
            ledger=dict(sorted(deployment.cluster.ledger.snapshot().items())),
            events=sorted([e.kind, e.site] for e in injector.events),
            wall_seconds=time.perf_counter() - start_wall,
            virtual_seconds=clock.now(),
            stats={
                "advances": clock.stats.advances,
                "sleeps": clock.stats.sleeps,
                "max_concurrent_sleepers": clock.stats.max_concurrent_sleepers,
                "wedged": clock.stats.wedged,
                "storage": storage,
            },
        )
        if check:
            result.violations = self._check_invariants(result, untyped)
        return result

    def replay(self, schedule_json: str, check: bool = True) -> ChaosRunResult:
        """Re-run a persisted (minimized) schedule from its JSON form."""
        return self.run(FaultSchedule.from_json(schedule_json), check=check)

    # ------------------------------------------------------------ invariants

    def _check_invariants(self, result: ChaosRunResult, untyped: list[str]) -> list[str]:
        violations: list[str] = []

        # 1. No wedged threads: every client joined, every serving-plane
        #    thread exited, no managed thread left stranded outside a wait.
        if result.stats.get("wedged"):
            violations.append(f"wedged threads: {result.stats['wedged']}")

        # 2. Typed-only outcomes: a fault may fail a session, but only as a
        #    typed serving error recorded by the client — never an untyped
        #    exception escaping the harness (VirtualTimeExhausted lands here
        #    too: a timeout storm is a liveness defect, not an outcome).
        violations.extend(f"untyped outcome: {u}" for u in untyped)
        if len(result.outcomes) + len(untyped) < self.scenario.num_sessions:
            violations.append(
                f"lost sessions: {len(result.outcomes)} outcomes for "
                f"{self.scenario.num_sessions} sessions"
            )

        solo, solo_ingest = self._solo_baseline()

        # 3. Ledger conservation: completed sessions ingested exactly the
        #    solo byte volume each (ml.ingest is only charged for a fully
        #    delivered dataset, so it must be a multiple of the solo cost
        #    covering at least the completed population), retry traffic
        #    appears only under a fault schedule, and a fault-free schedule
        #    reproduces the baseline ledger byte for byte.
        completed = [o for o in result.outcomes if o["error_type"] is None]
        ingest = result.ledger.get("ml.ingest", 0)
        if solo_ingest:
            if ingest < len(completed) * solo_ingest:
                violations.append(
                    f"ledger conservation: ml.ingest={ingest} < "
                    f"{len(completed)} completed x {solo_ingest} solo bytes"
                )
            elif ingest % solo_ingest:
                violations.append(
                    f"ledger conservation: ml.ingest={ingest} is not a "
                    f"multiple of the {solo_ingest}-byte solo ingest"
                )
        if not result.schedule.actions:
            if result.ledger.get("stream.retry", 0):
                violations.append(
                    "fault-free run charged stream.retry="
                    f"{result.ledger['stream.retry']}"
                )
            baseline = self._fault_free_ledger()
            if baseline is not None:
                diff = {
                    key: (baseline.get(key), result.ledger.get(key))
                    for key in set(baseline) | set(result.ledger)
                    if key not in CONTENTION_COUNTERS
                    and baseline.get(key) != result.ledger.get(key)
                }
                if diff:
                    violations.append(
                        f"fault-free ledger diverged from baseline: {diff}"
                    )

        # 4. Completed-session weight identity: interleaving and injected
        #    faults may slow or fail a session, but a session that *completes*
        #    must produce bit-identical weights to its solo fault-free run.
        for o in completed:
            expected = solo.get(o["seed"])
            got = tuple(o["weights"]) + (o["intercept"],)
            if expected is not None and got != expected:
                violations.append(
                    f"weights diverged for {o['session_id']} (seed {o['seed']}): "
                    f"{got} != solo {expected}"
                )

        # 5. Storage health at quiescence (dfs_table scenarios): after the
        #    repair scanner runs until stable, every block with at least one
        #    healthy replica is back at its replication target, and a block
        #    can only be *lost* (no healthy replica anywhere) when storage
        #    faults were actually injected — losing data without a fault is
        #    a repair-pipeline defect, not chaos.
        storage = result.stats.get("storage")
        if storage is not None:
            fsck = storage["fsck"]
            if fsck["under_replicated"]:
                violations.append(
                    "replication not restored at quiescence: "
                    f"{fsck['under_replicated']}"
                )
            storage_events = {
                "replica_corrupt",
                "datanode_down",
                "enospc",
                "dfs_read_error",
            }
            had_storage_faults = any(
                kind in storage_events for kind, _site in result.events
            )
            if fsck["missing_blocks"] and not had_storage_faults:
                violations.append(
                    "blocks lost with no storage fault injected: "
                    f"{fsck['missing_blocks']}"
                )

        # 6. Opt-in strict bar (shrinking demos): every session completes.
        if self.require_all_complete:
            for o in result.outcomes:
                if o["error_type"] is not None:
                    violations.append(
                        f"session {o['session_id']} failed: {o['error_type']}"
                    )
        return violations

    def _solo_baseline(self) -> tuple[dict[int, tuple], int]:
        """Fault-free sequential baseline: per-seed weights + ingest bytes."""
        if self._solo is None:
            from repro.workloads.loadgen import run_one_session

            clock = VirtualClock(max_virtual_s=self.max_virtual_s)
            injector = FaultInjector(FaultConfig(), clock=clock)  # inert
            deployment = self.scenario.build(injector, clock)
            self.scenario.make_table(deployment)
            sc = self.scenario
            solo: dict[int, tuple] = {}

            def runner() -> None:
                for i in range(sc.num_sessions):
                    out = run_one_session(
                        deployment,
                        f"solo_{i}",
                        seed=sc.base_seed + i,
                        iterations=sc.iterations,
                    )
                    if out.error is not None:
                        raise AssertionError(f"solo baseline failed: {out.error}")
                    solo[out.seed] = out.weights + (out.intercept,)

            t = clock.spawn(runner, name="chaos-solo-baseline")
            t.join(self.run_wall_cap_s)
            if t.is_alive() or len(solo) != sc.num_sessions:
                raise AssertionError("solo baseline did not finish (wedged?)")
            ledger = deployment.cluster.ledger
            self._solo = solo
            self._solo_ingest = ledger.get("ml.ingest") // sc.num_sessions
        return self._solo, self._solo_ingest or 0

    def _fault_free_ledger(self) -> dict | None:
        """The concurrent fault-free run's ledger (the empty-schedule bar).

        Returns None while being computed (the baseline run itself checks
        invariants 1-4 but naturally skips the self-comparison)."""
        if self._baseline_ledger is None:
            self._baseline_ledger = {}  # sentinel: computation in progress
            base = self.run(FaultSchedule(seed=self.base_seed), check=True)
            if base.violations:
                self._baseline_ledger = None
                raise AssertionError(
                    "fault-free baseline run violated invariants: "
                    + "; ".join(base.violations)
                )
            self._baseline_ledger = base.ledger
            return None
        if not self._baseline_ledger:
            return None  # re-entrant call from the baseline run itself
        return self._baseline_ledger

    # ----------------------------------------------------------- exploration

    def explore(
        self,
        rounds: int = 16,
        wall_budget_s: float | None = None,
        shrink: bool = True,
    ) -> ExploreReport:
        """Run up to ``rounds`` sampled schedules within the wall budget,
        shrinking every failure to its minimal replayable form."""
        start = time.perf_counter()
        report = ExploreReport(rounds_requested=rounds)
        for index in range(rounds):
            if (
                wall_budget_s is not None
                and time.perf_counter() - start >= wall_budget_s
            ):
                break
            schedule = self.sample_schedule(index)
            result = self.run(schedule)
            report.runs.append(result)
            report.rounds_run += 1
            if result.failed:
                if shrink:
                    minimized, min_result = self.shrink(schedule)
                else:
                    minimized, min_result = schedule, result
                report.failures.append((minimized, min_result))
        report.wall_seconds = time.perf_counter() - start
        return report

    # -------------------------------------------------------------- shrinking

    def shrink(self, schedule: FaultSchedule) -> tuple[FaultSchedule, ChaosRunResult]:
        """ddmin over the action list: the smallest subset (same fault seed)
        that still violates an invariant.  Deterministic replay makes every
        probe trustworthy — a schedule either fails or it does not."""
        result = self.run(schedule)
        if not result.failed:
            return schedule, result
        actions = list(schedule.actions)
        granularity = 2
        while len(actions) >= 2:
            chunk = max(1, len(actions) // granularity)
            chunks = [actions[i : i + chunk] for i in range(0, len(actions), chunk)]
            reduced = False
            # Try each chunk alone, then each complement (classic ddmin).
            candidates = chunks + [
                [a for j, other in enumerate(chunks) for a in other if j != i]
                for i in range(len(chunks))
            ]
            for candidate in candidates:
                if not candidate or len(candidate) >= len(actions):
                    continue
                probe = self.run(schedule.subset(candidate))
                if probe.failed:
                    actions, result = candidate, probe
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(actions):
                    break
                granularity = min(len(actions), granularity * 2)
        return schedule.subset(actions), result
