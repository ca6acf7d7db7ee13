"""JobManager: job creation, task placement, dependency-driven starts.

"A JobManager is selected based on User specified Job requirements from
the list of willing JobManagers.  The Job is subsequently created in the
selected JobManager.  ...  The JobManager solicits TaskManager for the
Tasks that requested to be created by the User program.  If a willing
TaskManager is found the JobManager will upload the JAR file to that
TaskManager." (paper section 3)

Placement is one path, :meth:`JobManager._place`: the JobManager
multicasts a rule carrying the tasks' shared memory/runmodel
requirements, every willing TaskManager answers with one bid, and the
award goes to the bidder with the most free memory (best fit spreads
load across nodes, which the placement benchmark measures); a bidder
that fails the upload is excluded and the task is re-bid.  One task per
round is the paper's per-task solicitation; ``Cluster(scheduler="bid")``
puts a whole homogeneous batch in one round.  The JobManager
also drives the dependency DAG: when a task completes, every dependent
whose dependencies are all complete is started automatically -- this is
the "transitions are triggered by internal task termination" semantics
the activity-diagram mapping relies on (paper section 4).

The drive, in three sentences.  The job keeps, per task, a count of
dependencies not COMPLETED yet, derived from the tasks' current states
on first use and again whenever the roster grows (which is what makes an
adopted job, a re-placed task and a task created under a running one
ordinary cases).  A COMPLETED task takes one off each of its dependents'
counts, once, under ``Job._lock``, and :meth:`JobManager._on_terminal`
claims exactly the dependents that reached zero -- it neither scans the
roster nor re-claims what other completions made ready.
:meth:`Job.ready_tasks`, a scan of the states, stays the definition of
readiness and the entry point of the paths that run once per job or per
fault (:meth:`JobManager.start_job`, :meth:`_recover`, adoption); a task
created under a running job with its dependencies already COMPLETED has
no completion left to wake it and is claimed by :meth:`create_tasks`.
"Is the job over" is likewise a cursor over the roster rather than a
scan per completion; it relies on a terminal state being final.

Fault tolerance: a :class:`FailureDetector` tracks heartbeats from every
registered TaskManager (relayed off the multicast bus by the CNServer)
and declares a node dead after K consecutive missed beats.  Node death
triggers :meth:`handle_node_failure`, which evicts the node from the
placement pool and bulk-recovers its orphaned tasks through the same
:meth:`_recover` path individual task retries use -- re-place, replay
the message ledger, restart.  Retries back off exponentially with
deterministic seed-derived jitter (:class:`~repro.cn.chaos.ExponentialBackoff`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..analysis.conc.runtime import make_lock
from .chaos import ExponentialBackoff
from .durability import JobDirectory, ReplicatedJournal, replay_job
from .errors import CnError, NoWillingTaskManager, ShutdownError
from .job import Job, TaskRuntime, TaskSpec, TaskState
from .messages import MessageType
from .multicast import MulticastBus, Solicitation
from .runmodel import RunModel
from .scheduler import PlacementRule, award_bids
from .taskmanager import TaskManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import ClusterConfig

__all__ = ["JobManager", "FailureDetector"]


def _placed_record(runtime: TaskRuntime) -> tuple[str, dict]:
    """The journal's one ``task-placed`` shape, read after ``host_task``."""
    return (
        "task-placed",
        {"task": runtime.name, "node": runtime.node_name, "epoch": runtime.epoch},
    )


class FailureDetector:
    """K-consecutive-missed-heartbeat failure detector.

    Each watched node has a miss counter; a heartbeat resets it, a tick
    without an intervening heartbeat increments it, and crossing
    ``k_misses`` declares the node dead.  A later heartbeat from a dead
    node (partition healed, node revived) resurrects it -- the classic
    eventually-perfect-detector behaviour: mistakes are possible but
    corrected.
    """

    def __init__(self, k_misses: int = 3) -> None:
        if k_misses < 1:
            raise ValueError(f"k_misses must be >= 1, got {k_misses}")
        self.k_misses = k_misses
        self._misses: dict[str, int] = {}
        self._beat_since_tick: dict[str, bool] = {}
        self._dead: set[str] = set()
        self._lock = make_lock("FailureDetector._lock", reentrant=False)

    def watch(self, node: str) -> None:
        with self._lock:
            self._misses.setdefault(node, 0)
            self._beat_since_tick.setdefault(node, True)

    def unwatch(self, node: str) -> None:
        with self._lock:
            self._misses.pop(node, None)
            self._beat_since_tick.pop(node, None)
            self._dead.discard(node)

    def beat(self, node: str) -> bool:
        """Record a heartbeat.  Returns True when this beat resurrects a
        node previously declared dead (a false positive being corrected)."""
        with self._lock:
            if node not in self._misses:
                return False
            self._misses[node] = 0
            self._beat_since_tick[node] = True
            if node in self._dead:
                self._dead.discard(node)
                return True
            return False

    def tick(self) -> list[str]:
        """One detection period: nodes silent since the last tick accrue a
        miss; returns the nodes newly declared dead on this tick."""
        newly_dead: list[str] = []
        with self._lock:
            for node in self._misses:
                if node in self._dead:
                    continue
                if self._beat_since_tick.get(node):
                    self._beat_since_tick[node] = False
                    continue
                self._misses[node] += 1
                if self._misses[node] >= self.k_misses:
                    self._dead.add(node)
                    newly_dead.append(node)
        return newly_dead

    def dead_nodes(self) -> set[str]:
        with self._lock:
            return set(self._dead)

    def misses(self, node: str) -> int:
        with self._lock:
            return self._misses.get(node, 0)


class JobManager:
    """One node's job coordination component."""

    def __init__(
        self,
        name: str,
        bus: MulticastBus,
        config: "ClusterConfig",
        *,
        local_taskmanager: Optional[TaskManager] = None,
    ) -> None:
        self.name = name
        self.bus = bus
        #: the cluster's configuration: ``scheduler`` (how
        #: :meth:`create_tasks` cuts a call into placement rounds) and
        #: ``checksums`` (handed to every job created or adopted here)
        self.config = config
        self.registry = config.registry
        #: unfinished jobs this manager takes on before it stops offering
        self.max_jobs = 16
        self.local_taskmanager = local_taskmanager
        self.jobs: dict[str, Job] = {}
        self._job_counter = 0
        self._lock = make_lock("JobManager._lock")
        self._taskmanagers: dict[str, TaskManager] = {}
        self._shutdown = False
        self.failure_detector = FailureDetector(config.failure_k)
        #: delay before a retry is re-placed, and what waits it out
        self.backoff = ExponentialBackoff()
        self._sleeper: Callable[[float], None] = time.sleep
        #: nodes this manager has declared dead and recovered from
        self.failed_nodes: list[str] = []
        #: write-ahead job journal (replicated); None = non-durable mode
        self.journal: Optional[ReplicatedJournal] = None
        #: cluster-wide job_id -> (manager, Job) map for client re-binding
        self.directory: Optional[JobDirectory] = None
        #: jobs this manager adopted from dead peers (failover audit trail)
        self.adopted_jobs: list[str] = []
        #: cluster Telemetry hub; None means zero instrumentation on
        #: every path below
        self.telemetry = config.telemetry

    # -- discovery ---------------------------------------------------------
    def willing_to_manage(self, solicitation: Solicitation) -> Optional[dict]:
        """Respond to a multicast jobmanager solicitation (or decline)."""
        with self._lock:
            if self._shutdown:
                return None
            active = len([j for j in self.jobs.values() if not j.finished])
            if active >= self.max_jobs:
                return None
            wanted_tasks = int(solicitation.requirements.get("tasks", 0))
            # the offer advertises this manager's view of cluster capacity
            return {
                "manager": self.name,
                "active_jobs": active,
                "free_job_slots": self.max_jobs - active,
                "local_free_memory": (
                    self.local_taskmanager.free_memory if self.local_taskmanager else 0
                ),
                "wanted_tasks": wanted_tasks,
            }

    def register_taskmanager(self, tm: TaskManager) -> None:
        """Make *tm* known for direct upload after a successful solicit."""
        with self._lock:
            self._taskmanagers[tm.name] = tm
        self.failure_detector.watch(tm.name)

    # -- failure detection -------------------------------------------------------
    def on_heartbeat(self, node: str) -> None:
        """A heartbeat arrived (relayed from the bus by the CNServer)."""
        self.failure_detector.beat(node)

    def on_tick(self) -> list[str]:
        """One failure-detection period; recovers from any node newly
        declared dead.  Returns those nodes' names."""
        newly_dead = self.failure_detector.tick()
        for node in newly_dead:
            self.handle_node_failure(node)
        return newly_dead

    def handle_node_failure(self, node: str) -> None:
        """A TaskManager is dead: bulk-recover every unfinished task it
        was hosting.  The registration itself is kept -- placement
        filters on the detector's dead set, and a later resurrection
        (healed partition, revived node) makes the node placeable again
        without re-registration."""
        with self._lock:
            self.failed_nodes.append(node)
            jobs = [j for j in self.jobs.values() if not j.finished]
        for job in jobs:
            orphans = [
                rt
                for rt in (job.tasks[name] for name in job.task_names())
                if rt.node_name == node
                and not rt.state.terminal
                and rt.state is not TaskState.PENDING
            ]
            if not orphans:
                continue
            job.notify(
                MessageType.NODE_FAILED,
                {"node": node, "orphans": [rt.name for rt in orphans]},
                sender=self.name,
            )
            self._recover(job, orphans, reason="node-failure")
        # manager failover: if the dead node was itself managing jobs,
        # the deterministic successor (this manager, if lowest-ranked
        # survivor) adopts them by replaying the replicated journal
        self._adopt_from(node)

    # -- manager failover --------------------------------------------------------
    def _is_successor(self, dead_base: str) -> bool:
        """Deterministic successor election, no extra protocol: every
        survivor ranks the surviving node base-names and the lowest one
        adopts.  All detectors see the same dead set (same heartbeats,
        same K), so exactly one manager elects itself."""
        my_base = self.name.split("/")[0]
        with self._lock:
            watched = list(self._taskmanagers)
        dead = {n.split("/")[0] for n in self.failure_detector.dead_nodes()}
        dead.add(dead_base)
        if my_base in dead:
            return False
        survivors = {n.split("/")[0] for n in watched} - dead
        survivors.add(my_base)
        return min(sorted(survivors)) == my_base

    def _adopt_from(self, node: str) -> list[str]:
        """Adopt every in-flight job the dead *node*'s JobManager was
        managing (according to the replicated journal), if this manager
        is the elected successor.  Returns the adopted job ids."""
        if self.journal is None:
            return []
        dead_base = node.split("/")[0]
        if not self._is_successor(dead_base):
            return []
        adopted: list[str] = []
        for job_id in self.journal.jobs_managed_by(f"{dead_base}/jm"):
            with self._lock:
                if self._shutdown or job_id in self.jobs:
                    continue
            try:
                self.adopt_job(job_id)
            except CnError:
                continue  # placement wholesale failure; job marked failed
            adopted.append(job_id)
        return adopted

    def adopt_job(self, job_id: str) -> Job:
        """Take over *job_id* from a dead manager: replay the journal into
        a fresh Job, fence the dead manager with a bumped manager epoch,
        evict its zombie hostings, re-place the unfinished tasks (message
        ledger replayed, checkpoints restored), and re-bind the client's
        handle through the directory."""
        journal = self.journal
        if journal is None:
            raise CnError(f"JobManager {self.name!r} has no journal to replay")
        records = journal.records(job_id)
        snapshot = replay_job(job_id, records)
        job = Job(job_id, snapshot.client, checksums=self.config.checksums)
        job.manager_epoch = snapshot.mepoch + 1
        # the budget survives failover: the successor enforces the same
        # absolute deadline the dead manager journaled at creation
        job.deadline = snapshot.deadline
        with self._lock:
            if self._shutdown:
                raise CnError(f"JobManager {self.name!r} is shut down")
            self.jobs[job_id] = job
            self.adopted_jobs.append(job_id)
        job.set_telemetry(self.telemetry)
        t = job.telemetry
        adopt_start = t.now() if t is not None else 0.0
        self._bind_journal(job)
        # fence first: once this record lands, any append still stamped
        # with the dead manager's epoch is rejected by every backend
        job.journal_event(
            "job-adopted", {"manager": self.name, "previous": snapshot.manager}
        )
        # rebuild the roster exactly as journaled
        for name in snapshot.order:
            if t is not None:
                # idempotent: the recorder is cluster-global, so spans the
                # dead manager already began are reused, not duplicated --
                # the adopted job keeps its one trace across manager epochs
                self._begin_task_span(t, job, name, snapshot.specs[name].depends)
            runtime = job.add_task(snapshot.specs[name])
            runtime.attempts = snapshot.attempts.get(name, 0)
            # restoring the highest journaled placement epoch guarantees
            # re-hosted attempts get strictly larger epochs than any
            # zombie attempt still running somewhere
            runtime.epoch = snapshot.epochs.get(name, 0)
            runtime.node_name = snapshot.nodes.get(name)
            state = TaskState(snapshot.states.get(name, TaskState.PENDING.value))
            if state.terminal:
                runtime.state = state
                runtime.result = snapshot.results.get(name)
                runtime.error = snapshot.errors.get(name)
        job.restore_deliveries(snapshot.deliveries, snapshot.gc_watermarks)
        job.restore_checkpoints(snapshot.checkpoints)
        job.restore_dead_letters(snapshot.dead_letters)
        # migrate the client conduit: drain the dead manager's client
        # queue into the new job's (trace history survives), close the
        # old one so zombie notifications surface as undeliverable
        old_entry = self.directory.lookup(job_id) if self.directory else None
        if old_entry is not None and old_entry.job is not job:
            for message in old_entry.job.client_queue.drain():
                job.client_queue.put(message)
            old_entry.job.client_queue.close()
        if self.directory is not None:
            self.directory.register(job_id, self, job, epoch=job.manager_epoch)
        pending = [job.tasks[name] for name in snapshot.pending_tasks()]
        job.notify(
            MessageType.MANAGER_ADOPTED,
            {
                "job_id": job_id,
                "manager": self.name,
                "previous": snapshot.manager,
                "manager_epoch": job.manager_epoch,
                "replayed_records": len(records),
                "re_placing": [rt.name for rt in pending],
            },
            sender=self.name,
        )
        # terminal tasks are already done; let the job notice them so a
        # fully-finished roster flips the finished event immediately
        for name in snapshot.terminal_tasks():
            job.note_terminal(name)
        # the dead manager may have placed attempts on nodes that are
        # still alive: evict them so the epoch fence retires them
        with self._lock:
            taskmanagers = list(self._taskmanagers.values())
        for tm in taskmanagers:
            if not tm.crashed:
                tm.evict_job(job_id)
        if self.local_taskmanager is not None and not self.local_taskmanager.crashed:
            self.local_taskmanager.evict_job(job_id)
        self._recover(job, pending, reason="adoption")
        if t is not None:
            t.spans.record(
                job_id,
                f"adopt#{job.manager_epoch}",
                start=adopt_start,
                end=t.now(),
                name=f"adopt by {self.name}",
                kind="adopt",
                parent_id="job",
                node=self.name.split("/")[0],
                manager=self.name,
                previous=snapshot.manager,
                manager_epoch=job.manager_epoch,
            )
            t.metrics.counter("cn_adoptions_total", manager=self.name).inc()
        return job

    # -- telemetry helpers -------------------------------------------------------
    def _begin_task_span(self, t: Any, job: Job, name: str, depends) -> None:
        """Ensure the job root + one task span exist, and record the DAG
        edge on the root's ``deps`` attr (exported traces stay
        self-contained for the critical-path CLI)."""
        root = t.spans.begin(
            job.job_id, "job", name=job.job_id, kind="job", client=job.client_name
        )
        root.attrs.setdefault("deps", {})[name] = list(depends)
        t.spans.begin(
            job.job_id,
            f"task:{name}",
            name=name,
            kind="task",
            parent_id="job",
            task=name,
        )

    # -- durability helpers ------------------------------------------------------
    def _bind_journal(self, job: Job) -> None:
        """Attach this manager's replicated journal to *job*: every batch
        of events the job emits is stamped with the job's current manager
        epoch."""
        journal = self.journal
        if journal is None:
            return
        job.set_journal(
            lambda events: journal.append_many(
                job.job_id, events, job.manager_epoch
            )
        )

    # -- job lifecycle -----------------------------------------------------------
    def create_job(
        self,
        client_name: str,
        *,
        descriptor: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Job:
        with self._lock:
            if self._shutdown:
                raise CnError(f"JobManager {self.name!r} is shut down")
            self._job_counter += 1
            job_id = f"{self.name}-job{self._job_counter}"
            job = Job(job_id, client_name, checksums=self.config.checksums)
            job.deadline = deadline
            self.jobs[job_id] = job
        job.set_telemetry(self.telemetry)
        t = job.telemetry
        if t is not None:
            t.spans.begin(
                job_id,
                "job",
                name=job_id,
                kind="job",
                node=self.name.split("/")[0],
                client=client_name,
            )
            t.metrics.counter("cn_jobs_created_total", manager=self.name).inc()
        self._bind_journal(job)
        job.journal_event(
            "job-created",
            {
                "client": client_name,
                "manager": self.name,
                "descriptor": descriptor,
                "deadline": deadline,
            },
        )
        if self.directory is not None:
            self.directory.register(job_id, self, job, epoch=job.manager_epoch)
        return job

    def create_task(self, job: Job, spec: TaskSpec) -> TaskRuntime:
        """Place one task: solicit TaskManagers, upload, create queue."""
        return self.create_tasks(job, [spec])[0]

    def create_tasks(self, job: Job, specs: Iterable[TaskSpec]) -> list[TaskRuntime]:
        """Place a batch of tasks in one call, round by round.

        ``scheduler`` says how the call is cut into placement rounds and
        nothing else: ``"solicit"`` puts one task in each round -- the
        paper's per-task solicitation, O(tasks x nodes) bus traffic --
        and ``"bid"`` one group of tasks sharing a template (jar, class,
        memory, runmodel), so a homogeneous batch costs one round.  The
        TASK_CREATED notifications are one :meth:`Job.notify` batch either
        way.
        """
        runtimes: list[TaskRuntime] = []
        t = job.telemetry
        try:
            for spec in specs:
                runtimes.append(job.add_task(spec))
                if t is not None:
                    self._begin_task_span(t, job, spec.name, spec.depends)
        finally:
            # write-ahead: the roster (as far as it got, if a spec was
            # rejected) is journaled in one batch before any placement, so
            # a successor knows it even if we die mid-placement
            job.journal_events(
                [("task-spec", {"spec": runtime.spec}) for runtime in runtimes]
            )
        if self.config.scheduler == "bid":
            groups: dict[tuple, list[TaskRuntime]] = {}
            for runtime in runtimes:
                spec = runtime.spec
                key = (spec.jar, spec.cls, spec.memory, spec.runmodel)
                groups.setdefault(key, []).append(runtime)
            rounds: Iterable[list[TaskRuntime]] = groups.values()
        else:
            rounds = ([runtime] for runtime in runtimes)
        for group in rounds:
            self._place(job, group)
        for runtime in runtimes:
            if job.has_ledgered(runtime.name):
                # messages routed to this task before it had a queue (the
                # placement window) were ledgered instead of raising at
                # the sender; deliver them now that the queue exists
                job.replay_into(runtime.name)
        job.notify(
            MessageType.TASK_CREATED,
            *[{"task": rt.name, "node": rt.node_name} for rt in runtimes],
            sender=self.name,
        )
        for runtime in runtimes:
            # a task created under a running job may find its dependencies
            # all COMPLETED -- before it arrived, or while it was being
            # placed (a completion passes over a dependent not CREATED
            # yet) -- and then no completion is left to wake it: its
            # creator claims it, the re-entry _recover uses.  A task
            # without dependencies is a root: start_job / start_task's.
            if runtime.spec.depends and job.is_ready(runtime.name):
                self.start_task(job, runtime.name, claim_only=True)
        return runtimes

    def _place(self, job: Job, runtimes: list[TaskRuntime]) -> None:
        """Place tasks that share a template: the one placement path.

        A ``RUN_IN_JOBMANAGER`` task is hosted on this servant's own
        TaskManager.  Anything else is placed by rounds: one
        :class:`~repro.cn.scheduler.PlacementRule` naming the tasks still
        to place is multicast; every node scores it locally (capacity,
        free memory, load, archive/producer locality) and answers with a
        single bid; :func:`~repro.cn.scheduler.award_bids` converts the
        bids into awards deterministically.  Awards are epoch-fenced: the
        task epoch only advances on a successful ``host_task``, so a node
        that dies or fills up between bid and award simply fails the
        award, is excluded, and the task re-enters the next round -- a
        zombie attempt can never double-place because its epoch never
        advanced.  Each round's ``task-placed`` records are journaled as
        one batch before the next round (or an error) leaves it.

        Accounting: one ``cn_placements_total`` count and one
        ``place:<task>#<epoch>`` span per task, one
        ``cn_placement_seconds`` observation per call;
        ``cn_rules_published_total`` / ``cn_bids_total`` /
        ``cn_awards_total`` count the rounds that publish a rule for more
        than one task, their bids and their awards (a round of one is the
        paper's solicitation, counted by the bus).
        """
        spec0 = runtimes[0].spec
        t = job.telemetry
        start = t.now() if t is not None else 0.0
        placed: list[tuple[str, dict]] = []  # hostings made, not journaled yet
        try:
            task_class = self.registry.resolve(spec0.jar, spec0.cls)  # "upload the JAR"
            local = self.local_taskmanager
            if spec0.runmodel is RunModel.RUN_IN_JOBMANAGER and local is not None:
                # coordinator-style tasks run on this servant's own TM
                for runtime in runtimes:
                    local.host_task(job, runtime, task_class)
                    placed.append(_placed_record(runtime))
                return
            by_name = {rt.name: rt for rt in runtimes}
            depends = tuple(sorted({d for rt in runtimes for d in rt.spec.depends}))
            pending = list(by_name)
            excluded: set[str] = set()  # bidders that failed an award this placement
            while pending:
                rule = PlacementRule(
                    job.job_id,
                    spec0.jar,
                    spec0.memory,
                    spec0.runmodel,
                    tuple(pending),
                    depends,
                )
                responses = self.bus.solicit(
                    Solicitation("rule", {"rule": rule}, self.name)
                )
                # a dead node's stale bid must not win an award, and a bidder
                # that already failed an award this placement is distrusted
                distrusted = self.failure_detector.dead_nodes() | excluded
                bids = [
                    bid for _, bid in responses if bid.taskmanager not in distrusted
                ]
                awards, unplaced = award_bids(rule, bids)
                if t is not None and len(pending) > 1:
                    counter = t.metrics.counter
                    counter("cn_rules_published_total", manager=self.name).inc()
                    counter("cn_bids_total", manager=self.name).inc(len(bids))
                    counter("cn_awards_total", manager=self.name).inc(len(awards))
                if not awards:
                    raise NoWillingTaskManager(
                        f"no TaskManager bid to host {pending!r} "
                        f"(memory {spec0.memory}, runmodel {spec0.runmodel.value})"
                    )
                failed: list[str] = []
                for task_name, tm_name in awards:
                    runtime = by_name[task_name]
                    tm = self._tm_lookup(tm_name)
                    try:
                        if tm is None:
                            raise CnError(f"bidder {tm_name!r} is not registered")
                        tm.host_task(job, runtime, task_class)
                    except CnError:
                        # killed (or filled up) between bid and award:
                        # exclude the bidder and re-bid; the epoch fence
                        # makes this safe against double placement
                        excluded.add(tm_name)
                        failed.append(task_name)
                    else:
                        placed.append(_placed_record(runtime))
                # one journal batch per round, before the next one
                job.journal_events(placed)
                placed = []
                # progress each round: either a task placed (pending shrinks)
                # or a bidder was excluded (bid pool shrinks) -- and an empty
                # award set raises above, so the loop terminates
                pending = failed + unplaced
        finally:
            # an error leaves no hosting unrecorded
            job.journal_events(placed)
            if t is not None:
                end = t.now()
                t.metrics.counter("cn_placements_total", manager=self.name).inc(
                    len(runtimes)
                )
                t.metrics.histogram("cn_placement_seconds").observe(end - start)
                # epoch was bumped by host_task on success, so each effective
                # placement round gets a distinct span under the task span
                for runtime in runtimes:
                    t.spans.record(
                        job.job_id,
                        f"place:{runtime.name}#{runtime.epoch}",
                        start=start,
                        end=end,
                        name=f"place {runtime.name}",
                        kind="place",
                        parent_id=f"task:{runtime.name}",
                        node=runtime.node_name,
                        task=runtime.name,
                        epoch=runtime.epoch,
                    )

    # -- starting & DAG driving ------------------------------------------------------
    def start_task(self, job: Job, name: str, *, claim_only: bool = False) -> bool:
        """Start one task explicitly (dependencies are not checked; the
        generated clients start roots and let completion drive the rest).

        Under ``claim_only`` a hosting that vanished between placement and
        start (node crash) is not an error -- the task is simply not
        started here; recovery will re-place and start it."""
        runtime = job.task(name)
        try:
            tm = self._tm_for(runtime)
        except CnError:
            if claim_only:
                return False
            raise
        try:
            return tm.start_task(
                job, name, on_terminal=self._on_terminal, claim_only=claim_only
            )
        except (CnError, ShutdownError):
            if claim_only:
                return False
            raise

    def start_job(self, job: Job) -> None:
        """Start every dependency-free task; the completion callback
        cascades through the DAG."""
        ready = job.ready_tasks()
        if not ready and not job.finished:
            raise CnError(f"job {job.job_id} has no startable tasks")
        for runtime in ready:
            # claim_only: an already-finished task's completion callback
            # may have started this one a moment ago
            self.start_task(job, runtime.name, claim_only=True)

    def _journal_task_state(self, job: Job, runtime: TaskRuntime) -> None:
        data: dict = {
            "task": runtime.name,
            "state": runtime.state.value,
            "attempts": runtime.attempts,
        }
        if runtime.state is TaskState.COMPLETED:
            data["result"] = runtime.result
        if runtime.error:
            data["error"] = runtime.error
        job.journal_event("task-state", data)
        # computed from the roster, not job.finished: this write comes
        # before note_terminal flips the finished event (Job.attempt_ended)
        failed = job.failed is not None or runtime.state is TaskState.FAILED
        finished = failed or job.all_terminal()
        if finished:
            job.journal_event("job-finished", {"failed": failed})
        if finished or runtime.state is TaskState.CANCELLED:
            # the job is over (a task only ends CANCELLED when its job was
            # cancelled): its nodes give back what it no longer runs
            self._release_job(job)

    def _release_job(self, job: Job) -> None:
        for node in {rt.node_name for rt in job.tasks.values()}:
            tm = self._tm_lookup(node or "")
            if tm is not None:
                tm.release_job(job.job_id)

    def _on_terminal(self, job: Job, finished: TaskRuntime) -> None:
        self._journal_task_state(job, finished)
        if finished.state is TaskState.RETRYING:
            # re-place and restart: there is retry budget left
            self._recover(job, [finished], reason="retry")
            return
        if finished.state is not TaskState.COMPLETED:
            return  # failure/cancel: fail fast, do not cascade
        for runtime in job.unblocked_by(finished.name):
            # only the dependents this completion brought to zero unmet
            # dependencies; claim_only because start_job, recovery and a
            # re-derivation of the counts may hand the same task out
            self.start_task(job, runtime.name, claim_only=True)

    def _recover(
        self, job: Job, runtimes: Iterable[TaskRuntime], *, reason: str
    ) -> None:
        """The single recovery path for retries, deadline expiries, and
        node failures: evict the old hosting, back off (retries only),
        re-place via fresh solicitation, replay the task's message ledger
        into the new queue, and restart whatever became ready.

        The re-placement may land on a different node -- the useful
        property when the failure was node-local.  Replay makes delivery
        at-least-once across attempts; peers must tolerate duplicates
        (documented on TaskContext)."""
        recovered: list[TaskRuntime] = []
        t = job.telemetry
        for runtime in runtimes:
            if runtime.state.terminal:
                continue
            if t is not None:
                t.metrics.counter("cn_recoveries_total", reason=reason).inc()
            old_tm = self._tm_lookup(runtime.node_name or "")
            if old_tm is not None:
                old_tm.evict(job, runtime.name)
            if reason == "retry":
                # exponential backoff with deterministic jitter between
                # attempts; sleeper is injectable so tests don't wait
                delay = self.backoff.delay(runtime.attempts + 1, key=runtime.name)
                if delay > 0:
                    self._sleeper(delay)
            runtime.state = TaskState.PENDING
            try:
                self._place(job, [runtime])
            except CnError:
                # an ending no attempt produced, said the way every other is
                runtime.state = TaskState.FAILED
                runtime.error = (
                    (runtime.error or "")
                    + f"\n{reason}: re-placement failed for attempt "
                    f"{runtime.attempts + 1} (no willing TaskManager)"
                )
                job.attempt_ended(
                    runtime,
                    TaskState.FAILED,
                    runtime.error,
                    None,
                    sender=self.name,
                    on_terminal=self._journal_task_state,
                )
                continue
            job.replay_into(runtime.name)
            recovered.append(runtime)
        ready = {rt.name for rt in job.ready_tasks()}
        for runtime in recovered:
            if runtime.name in ready:
                self.start_task(job, runtime.name, claim_only=True)

    def _tm_lookup(self, node_name: str) -> Optional[TaskManager]:
        with self._lock:
            tm = self._taskmanagers.get(node_name)
        if tm is None and self.local_taskmanager is not None:
            if self.local_taskmanager.name == node_name:
                tm = self.local_taskmanager
        return tm

    def _tm_for(self, runtime: TaskRuntime) -> TaskManager:
        if runtime.node_name is None:
            raise CnError(f"task {runtime.name!r} has not been placed")
        tm = self._tm_lookup(runtime.node_name)
        if tm is None:
            raise CnError(f"unknown TaskManager {runtime.node_name!r}")
        return tm

    # -- status -----------------------------------------------------------------
    def query_status(self, job: Job) -> dict:
        """Answer a QUERY_STATUS request: per-task state and placement plus
        job-level summary.  A STATUS message with the same payload is also
        delivered to the client queue (the well-defined request/response
        pair of the CN message protocol)."""
        payload = {
            "job_id": job.job_id,
            "client": job.client_name,
            "finished": job.finished,
            "failed": job.failed is not None,
            "tasks": {
                name: {
                    "state": job.tasks[name].state.value,
                    "node": job.tasks[name].node_name,
                }
                for name in job.task_names()
            },
        }
        # job already torn down: the return value still answers, and the
        # undelivered STATUS is on the job's undeliverable record
        job.notify(MessageType.STATUS, payload, sender=self.name)
        return payload

    # -- cancellation / shutdown ---------------------------------------------------
    def cancel_job(self, job: Job) -> None:
        for name in job.task_names():
            runtime = job.task(name)
            if runtime.node_name is not None and not runtime.state.terminal:
                tm = self._tm_lookup(runtime.node_name)
                if tm is not None:
                    tm.cancel_task(job, name)

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            jobs = list(self.jobs.values())
        for job in jobs:
            if not job.finished:
                self.cancel_job(job)
            job.client_queue.close()

    def __repr__(self) -> str:
        return f"<JobManager {self.name!r} jobs={len(self.jobs)}>"
