"""The simulation driver: one real Cluster, one generated fault plan.

FoundationDB-style deterministic simulation testing for the CN runtime:
:class:`Simulation` builds a real :class:`~repro.cn.Cluster` on a
:class:`~repro.cn.VirtualClock` (``drive_timeouts=True``, so every
deadline in the system is under the driver's control), submits the
guiding-example Floyd job directly through the CN API, and steps virtual
time tick by tick while injecting the faults a
:class:`~repro.sim.schedule.Schedule` prescribes:

* link faults (drop / delay / duplicate / reorder) ride the
  seeded :class:`~repro.cn.ChaosPolicy` rates, so the same schedule
  injects the same faults on every run;
* every timed event -- kill, revive, partition, heal, burst -- is
  applied by the driver loop when its tick comes up, kills last, just
  before :meth:`Cluster.tick`; a burst fires a storm of status-query
  load against the managing JobManager;
* stalls are scripted per task attempt through the chaos policy.

The run ends at quiescence (job finished) or at the tick horizon, and
everything an oracle could want is collected into a :class:`SimResult`:
the result matrix next to the fault-free serial baseline, final task
states, a surviving journal replica, the owner's replica beside the live
owner job, the structured fault log, the lock verifier's verdict and
every exception that escaped a thread.  The harness never asserts
anything itself -- the oracle registry (:mod:`repro.sim.oracles`) owns
the invariants.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analysis.conc import runtime
from repro.apps.floyd import floyd_registry, floyd_warshall, random_weighted_graph
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
)
from repro.cn import CNAPI, ChaosPolicy, Cluster, CnError, TaskSpec, VirtualClock
from repro.cn.api import JobHandle
from repro.cn.durability import FileJournal, JournalRecord

from .oracles import job_view
from .schedule import MANAGER, FaultEvent, Schedule, generate

__all__ = ["Simulation", "SimResult"]

#: distinguishes MatrixStore keys across runs in one process
_RUN_IDS = itertools.count(1)

#: wall-clock pause after each tick, so task threads get to run
TICK_SLEEP = 0.001
#: watchdog deadlines of the split and the workers, and of the join, in
#: virtual seconds (set only when the schedule can lose work)
TASK_DEADLINE = 60.0
JOIN_DEADLINE = 80.0
#: the order a tick applies its due events in (stalls are scripted on the
#: chaos policy instead): topology first, then the burst, then the kills,
#: just before ``Cluster.tick``
_TICK_ORDER = {"revive": 0, "partition": 0, "heal": 0, "burst": 1, "kill": 2}


@dataclass
class SimResult:
    """Everything one simulation run produced, oracle-ready."""

    seed: int
    schedule: Schedule
    status: str  # "done" | "failed" | "timeout"
    error: str
    ticks: int
    job_id: str
    expected: list[list[float]]
    result_matrix: Optional[list[list[float]]]
    states: dict[str, str]
    records: list[JournalRecord]
    fault_log: list[dict[str, Any]]
    fault_summary: list[tuple[str, str, str]]
    #: the lock verifier's LockOrderError ("" if it found none or was off)
    lock_order: str = ""
    #: the ``(holder, acquired)`` lock-order edges the verifier observed
    lock_edges: frozenset[tuple[str, str]] = frozenset()
    #: the live owner Job under ``oracles.job_view`` once it finished, and
    #: its manager's replica (None / empty: not finished, or non-durable)
    owner_view: Optional[dict] = None
    owner_records: list[JournalRecord] = field(default_factory=list)
    #: exceptions that reached ``threading.excepthook`` during the run
    escaped: list[str] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.status == "done"


class Simulation:
    """One deterministic simulation run of the Floyd job under faults.

    ``registry_factory`` lets mutation tests swap in deliberately broken
    task implementations (e.g. a join without result dedup) and verify
    the oracles catch them; the default is the real Floyd registry.
    """

    def __init__(
        self,
        seed: int,
        schedule: Optional[Schedule] = None,
        *,
        n: int = 8,
        workers: int = 3,
        nodes: int = 4,
        max_ticks: int = 600,
        registry_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        if nodes < 3:
            raise ValueError("the sim needs >= 3 nodes (manager + failover room)")
        self.seed = seed
        self.schedule = (
            schedule
            if schedule is not None
            else generate(seed, nodes=nodes, workers=workers)
        )
        self.n = n
        self.workers = workers
        self.nodes = nodes
        self.max_ticks = max_ticks
        self.registry_factory = registry_factory or floyd_registry

    # -- assembly -------------------------------------------------------------
    def _build_chaos(self) -> ChaosPolicy:
        schedule = self.schedule
        chaos = ChaosPolicy(
            schedule.seed,
            queue_drop_rate=schedule.drop_rate,
            queue_delay_rate=schedule.delay_rate,
            queue_duplicate_rate=schedule.duplicate_rate,
            queue_reorder_rate=schedule.reorder_rate,
        )
        for event in schedule.events:
            if event.kind == "stall":
                chaos.stall_task(event.target, attempt=max(1, event.arg))
        return chaos

    def _build_job(self, api: CNAPI, source: str, *, hazards: bool):
        # watchdog deadlines and retry budgets only when the schedule can
        # actually lose work: a fault-free run must not risk a spurious
        # cancellation if the host machine stalls the worker threads
        handle = api.create_job("client", requirements={"prefer": MANAGER})
        api.create_task(
            handle,
            TaskSpec(
                name="split",
                jar=SPLIT_JAR,
                cls=SPLIT_CLASS,
                params=(source,),
                max_retries=3,
                deadline=TASK_DEADLINE if hazards else None,
            ),
        )
        names = [f"w{i}" for i in range(self.workers)]
        fan = [
            TaskSpec(
                name=name,
                jar=WORKER_JAR,
                cls=WORKER_CLASS,
                params=(index + 1,),
                depends=("split",),
                # generous: every wedge (a dropped or held-back row
                # broadcast) costs one watchdog period and one retry
                max_retries=8,
                deadline=TASK_DEADLINE if hazards else None,
            )
            for index, name in enumerate(names)
        ]
        if self.schedule.fan_call == "create_tasks":
            api.create_tasks(handle, fan)
        else:
            for spec in fan:
                api.create_task(handle, spec)
        api.create_task(
            handle,
            TaskSpec(
                name="join",
                jar=JOIN_JAR,
                cls=JOIN_CLASS,
                params=("",),
                depends=tuple(names),
                max_retries=4,
                deadline=JOIN_DEADLINE if hazards else None,
            ),
        )
        api.start_job(handle)
        return handle

    def _apply_event(
        self,
        event: FaultEvent,
        cluster: Cluster,
        api: CNAPI,
        handle: JobHandle,
        tick: int,
    ) -> None:
        if event.kind == "revive":
            cluster.revive_node(event.target)
        elif event.kind == "partition":
            group = [n for n in event.target.split(",") if n]
            rest = [n for n in cluster.node_names if n not in group]
            if group and rest:
                cluster.partition(group, rest)
        elif event.kind == "heal":
            cluster.heal_partition()
        elif event.kind == "burst":
            for _ in range(max(1, event.arg)):
                try:
                    api.query_status(handle)
                except CnError:
                    pass  # burst load racing a manager failover
        elif event.kind == "kill":
            cluster.chaos.note_kill(event.target, tick)
            cluster.kill_node(event.target)

    # -- the run ------------------------------------------------------------------
    def run(self) -> SimResult:
        """One run (a cluster ``ClusterConfig`` refuses raises its error)."""
        scope = runtime.verified_locks if self.schedule.verify_locking else nullcontext
        result = None
        try:
            # the chaos policy, the clock and the cluster are built in the
            # scope, so all their locks are instrumented
            with scope() as verifier:
                result = self._run(verifier)
        except runtime.LockOrderError as exc:
            if result is None:
                raise  # the body's own, not the verdict at the exit
            result.lock_order = str(exc)
        return result

    def _run(self, verifier: Optional[runtime.LockVerifier]) -> SimResult:
        schedule = self.schedule
        hazards = schedule.has_faults()
        matrix = random_weighted_graph(self.n, seed=schedule.seed)
        expected = floyd_warshall(matrix)
        options = schedule.cluster_options()
        with ExitStack() as stack:
            escaped: list[str] = []

            def excepthook(args: threading.ExceptHookArgs) -> None:
                thread = args.thread.name if args.thread is not None else "?"
                escaped.append(f"{thread}: {args.exc_type.__name__}: {args.exc_value}")

            stack.callback(setattr, threading, "excepthook", threading.excepthook)
            threading.excepthook = excepthook
            if isinstance(schedule.durable, str):
                fresh = stack.enter_context(tempfile.TemporaryDirectory())
                options["durable"] = os.path.join(fresh, schedule.durable)
            chaos = self._build_chaos()
            cluster = Cluster(
                self.nodes,
                registry=self.registry_factory(),
                chaos=chaos,
                clock=VirtualClock(drive_timeouts=True),
                **options,
            )
            cluster.server(MANAGER).accept_tasks = False
            box: dict[str, Any] = {}
            done = threading.Event()
            owner_view, owner_records = None, []
            try:
                api = CNAPI.initialize(cluster)
                source = store_matrix(f"sim-{schedule.seed}-{next(_RUN_IDS)}", matrix)
                handle = self._build_job(api, source, hazards=hazards)

                def waiter() -> None:
                    try:
                        box["results"] = api.wait(handle, timeout=float(self.max_ticks))
                    except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- surfaced via SimResult.status
                        box["error"] = exc
                    finally:
                        done.set()

                client = threading.Thread(target=waiter, name="sim-client", daemon=True)
                client.start()

                pending = sorted(
                    (event for event in schedule.events if event.kind in _TICK_ORDER),
                    key=lambda event: _TICK_ORDER[event.kind],
                )
                ticks = 0
                while ticks < self.max_ticks and not done.is_set():
                    ticks += 1
                    due = [event for event in pending if event.at_tick <= ticks]
                    for event in due:
                        pending.remove(event)
                        self._apply_event(event, cluster, api, handle, ticks)
                    cluster.tick()
                    time.sleep(TICK_SLEEP)
                done.wait(10.0)

                if "results" in box:
                    status, error = "done", ""
                elif "error" in box:
                    status, error = "failed", repr(box["error"])
                else:
                    status, error = "timeout", f"not quiescent after {ticks} ticks"
                raw = (box.get("results") or {}).get("join")
                job = handle.job
                journal = handle.manager.journal
                if job.finished and journal is not None:
                    owner_view = job_view(job)
                    owner_records = journal.records(handle.job_id)
                states = job.states()
                fault_log, fault_summary = chaos.log_dicts(), chaos.fault_summary()
            finally:
                cluster.shutdown()
            records = _surviving_replica(cluster, handle.job_id)
        return SimResult(
            seed=self.seed,
            schedule=schedule,
            status=status,
            error=error,
            ticks=ticks,
            job_id=handle.job_id,
            expected=[list(map(float, row)) for row in expected],
            result_matrix=None if raw is None else [list(map(float, r)) for r in raw],
            states=states,
            records=records,
            fault_log=fault_log,
            fault_summary=fault_summary,
            lock_edges=frozenset(verifier.edges() if verifier else ()),
            owner_view=owner_view,
            owner_records=owner_records,
            escaped=escaped,
        )


def _surviving_replica(cluster: Cluster, job_id: str) -> list[JournalRecord]:
    """The longest replica on a live node; on disk, what a restarted
    server would load from its file."""
    records: list[JournalRecord] = []
    backend = None
    for server in cluster.alive_servers():
        replica = server.journal.records(job_id) if server.journal else []
        if len(replica) > len(records):
            records, backend = replica, server.journal.backend
    if isinstance(backend, FileJournal):
        reloaded = FileJournal(backend.path)
        records = reloaded.records(job_id)
        reloaded.close()
    return records
