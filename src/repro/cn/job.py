"""Jobs and task runtime state.

"A Job is defined as a collection of Task objects" (paper section 3).
:class:`TaskSpec` is the immutable description derived from a CNX
``<task>``; :class:`TaskRuntime` tracks one (possibly dynamic-expanded)
task instance through its lifecycle; :class:`Job` owns the roster, the
job-wide tuple space, the client message queue, and the message router
connecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import pickle

from ..analysis.conc.runtime import make_condition, make_lock
from ..core.cnx.schema import CnxTask
from ..core.uml.tags import CNProfile
from .errors import (
    JobError,
    JobTimeoutError,
    ShutdownError,
    TaskFailedError,
    UnknownTaskError,
)
from .messages import TASK_LIFECYCLE, Message
from .queues import MessageQueue
from .runmodel import RunModel
from .tuplespace import TupleSpace

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .durability import JournalRecord
    from .taskmanager import HostedTask

__all__ = ["TaskSpec", "TaskState", "TaskRuntime", "Job", "payload_nbytes"]

#: the kinds :meth:`Job.journal_events` applies once accepted; the others'
#: state changes first, or they carry the epoch, wake waiters or need no fold
_APPLIED = frozenset(
    ("job-created", "task-spec", "delivery", "ledger-gc", "checkpoint")
)

#: recursion guard for :func:`payload_nbytes` on nested containers
_SIZE_DEPTH_LIMIT = 12

#: the item types :func:`payload_nbytes` sizes at 8 bytes each, and the
#: length from which a container is first checked for holding only them
#: (one C-level pass; below it a failed check costs more than it saves)
_EIGHT_BYTE_TYPES = frozenset((int, float, complex))
_FLAT_MIN_LEN = 16


def payload_nbytes(payload: Any, _depth: int = 0) -> Optional[int]:
    """Estimate a payload's wire size without serializing it.

    The data plane's accounting only needs a size *estimate*; paying a
    full ``pickle.dumps`` per routed message is the dominant CPU cost of
    a broadcast round.  This fast path covers the payload shapes the CN
    applications actually send -- buffers (``len``), numpy blocks
    (``.nbytes``), scalars, and containers of those -- and returns None
    for anything it cannot size, in which case the caller falls back to
    pickling.
    """
    if payload is None:
        return 1
    t = type(payload)
    if t is bool:
        return 1
    if t is int or t is float or t is complex:
        return 8
    if t is str or t is bytes or t is bytearray:
        return len(payload)
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes  # numpy arrays/scalars, memoryview
    if _depth >= _SIZE_DEPTH_LIMIT:
        return None
    if t is tuple or t is list or t is set or t is frozenset:
        n = len(payload)
        if n >= _FLAT_MIN_LEN and set(map(type, payload)) <= _EIGHT_BYTE_TYPES:
            return 8 + 16 * n  # what the loop below adds up to
        total = 8
        for item in payload:
            size = payload_nbytes(item, _depth + 1)
            if size is None:
                return None
            total += size + 8
        return total
    if t is dict:
        total = 8
        for key, value in payload.items():
            key_size = payload_nbytes(key, _depth + 1)
            value_size = payload_nbytes(value, _depth + 1)
            if key_size is None or value_size is None:
                return None
            total += key_size + value_size + 16
        return total
    return None


@dataclass(frozen=True)
class TaskSpec:
    """Immutable description of one task instance."""

    name: str
    jar: str
    cls: str
    depends: tuple[str, ...] = ()
    memory: int = CNProfile.MEMORY.default
    runmodel: RunModel = RunModel(CNProfile.RUNMODEL.default)
    params: tuple = ()
    max_retries: int = CNProfile.RETRIES.default
    #: per-task deadline in virtual seconds (advanced by Cluster.tick);
    #: None disables the watchdog for this task
    deadline: Optional[float] = None

    @classmethod
    def from_cnx(cls, task: CnxTask) -> "TaskSpec":
        """Build a spec from a CNX task element (dynamic expansion is the
        caller's concern; see :func:`repro.cn.client.expand_dynamic_tasks`)."""
        return cls(
            name=task.name,
            jar=task.jar,
            cls=task.cls,
            depends=tuple(task.depends),
            memory=task.task_req.memory,
            runmodel=RunModel.parse(task.task_req.runmodel),
            params=tuple(task.param_values()),
            max_retries=task.task_req.retries,
        )

    def with_instance(self, index: int, params: Sequence[Any]) -> "TaskSpec":
        """A concrete instance of a dynamic task: indexed name, given args."""
        return replace(self, name=f"{self.name}{index}", params=tuple(params))


class TaskState(str, Enum):
    PENDING = "PENDING"      # spec known, not yet placed
    CREATED = "CREATED"      # placed on a TaskManager (queue built on first use)
    RUNNING = "RUNNING"
    RETRYING = "RETRYING"    # failed with retry budget left; being re-placed
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED)


#: the notification that tells the client a task reached a state
_STATE_MESSAGE = {TaskState(s): t for s, t, _ in TASK_LIFECYCLE if s is not None}


class TaskRuntime:
    """Mutable lifecycle record for one task instance."""

    def __init__(self, spec: TaskSpec) -> None:
        self.spec = spec
        self.state = TaskState.PENDING
        self.node_name: Optional[str] = None
        self.result: Any = None
        self.error: Optional[str] = None
        #: the live hosting: where deliveries to this task go
        self.hosting: Optional["HostedTask"] = None
        self.attempts = 0  # runs started so far (completed, failed, or fenced)
        #: placement generation: bumped every time the task is (re)hosted.
        #: A run whose hosting epoch no longer matches is a zombie (its
        #: node crashed or it was re-placed) and its outcome is discarded.
        self.epoch = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"<TaskRuntime {self.name!r} {self.state.value}>"


class Job:
    """A job instance living in a JobManager.

    The job is also the message router for its tasks: the paper's
    JobManager is "a conduit between the client CN application and the
    Job", and intertask/user traffic flows through the same conduit.
    """

    def __init__(self, job_id: str, client_name: str) -> None:
        self.job_id = job_id
        self.client_name = client_name
        #: the managing JobManager's name, as it last journaled it
        self.manager = ""
        self.tasks: dict[str, TaskRuntime] = {}
        self.task_order: list[str] = []
        self.tuple_space = TupleSpace()
        self.client_queue = MessageQueue(owner=f"{job_id}/client")
        self._lock = make_lock("Job._lock")
        # completion is a condition variable, not a polled flag: waiters
        # (api.CNAPI.wait) block until notified, and a failover re-bind
        # wakes them too so they can re-resolve the successor's Job
        self._cond = make_condition("Job._lock", self._lock)
        self._finished_flag = False
        self._rebound = False
        self.failed: Optional[TaskFailedError] = None
        #: cluster Telemetry hub (None = zero instrumentation)
        self.telemetry: Optional[Any] = None
        self._m_payload: Optional[Any] = None
        # communication accounting (simulated wire volume): counts every
        # routed message and estimates its payload size -- the observable
        # the paper's row-k broadcast analysis (section 2) predicts.  The
        # cluster folds the counts into the metrics registry when it is
        # read (cn_messages_routed_total, cn_payload_unsized_total)
        self.messages_routed = 0
        self.payload_bytes = 0
        #: size computations actually performed (one per *unique* payload
        #: per fan-out -- interning makes a W-1 broadcast cost 1)
        self.payload_sizings = 0
        #: sizings avoided because the payload object was already sized
        #: within the same fan-out (shared-by-reference broadcast payloads)
        self.payload_reuses = 0
        #: sizings that had to fall back to pickling (no fast-size path)
        self.payloads_pickle_sized = 0
        #: payloads that could not be sized at all (unpicklable); their
        #: wire volume is lost from the accounting, so it is counted
        self.payloads_unsized = 0
        #: messages re-delivered into fresh queues after a re-placement
        #: (not part of the paper's wire-volume accounting)
        self.messages_replayed = 0
        #: messages that could not be delivered because their queue was
        #: already closed (job torn down, conduit closed), newest last:
        #: ``{"type", "recipient", "serial", "error"}`` each (see notify).
        #: Bounded, oldest fall off; ``cn_undeliverable_total`` keeps count
        self.undeliverable: list[dict] = []
        # per-task delivery ledger: everything ever routed to each task,
        # replayed into the fresh queue when a task is re-placed after a
        # crash so restarted attempts see the full message history.
        # Entries for a task are truncated (GC'd) once the task reaches a
        # terminal state at its current epoch -- terminal tasks are never
        # re-placed, so their history can never be replayed again.
        self._delivery_log: dict[str, list[Message]] = {}
        #: cumulative count of ledger entries truncated per task (the GC
        #: watermark journaled so successor managers agree)
        self.gc_watermarks: dict[str, int] = {}
        # ledger occupancy accounting (resident = entries currently held;
        # peak = high-watermark; truncated = total entries GC'd)
        self.ledger_resident = 0
        self.ledger_peak = 0
        self.ledger_truncated = 0
        #: manager epoch: bumped when a successor JobManager adopts this
        #: job after a failover; stamps every journal record so a zombie
        #: manager's late writes are fenced out (see repro.cn.durability)
        self.manager_epoch = 1
        # write-ahead journal hook, set by the managing JobManager:
        # (events) -> the records accepted, events a batch of (kind, data)
        # pairs.  None when the cluster runs non-durable.
        self._journal: Optional[Any] = None
        # application-level task checkpoints (task -> (tag, state)),
        # populated through TaskContext.checkpoint and folded from the
        # journal on adoption
        self._checkpoints: dict[str, tuple[Any, Any]] = {}
        # the DAG drive (see unblocked_by), one triple per roster version:
        # who waits on each task, how many of each task's dependencies are
        # not COMPLETED yet, and whose completion those counts already
        # include.  None = the roster grew since the last derivation; the
        # next reader re-derives from the tasks' current states.
        self._drive: Optional[
            tuple[dict[str, list[str]], dict[str, int], set[str]]
        ] = None
        # what every attempt's context is handed (see roster), one pair per
        # roster version: the task names in roster order and each task's
        # depends.  None = the roster grew; the next reader re-derives it.
        self._roster: Optional[
            tuple[list[str], dict[str, tuple[str, ...]]]
        ] = None
        # index into task_order of the first task not yet seen terminal.
        # Terminal states are final, so it only moves forward and "is every
        # task terminal" is "has it reached the end" (see all_terminal)
        self._first_live = 0
        # the tasks whose terminal records are all written (note_terminal)
        self._terminal_noted: set[str] = set()

    # -- telemetry ---------------------------------------------------------------
    def set_telemetry(self, telemetry: Optional[Any]) -> None:
        """Attach the cluster Telemetry hub and bind the payload-size
        histogram once: a distribution cannot be folded from the plain
        counts :meth:`route_many` keeps, so it is the one metric routing
        updates itself."""
        if telemetry is None:
            self.telemetry = None
            self._m_payload = None
            return
        self.telemetry = telemetry
        from .telemetry.metrics import BYTES_BUCKETS

        self._m_payload = telemetry.metrics.histogram(
            "cn_payload_bytes", buckets=BYTES_BUCKETS
        )

    # -- durability ----------------------------------------------------------------
    def set_journal(self, hook: Optional[Any]) -> None:
        """Attach (None: detach) the write-ahead journal hook, shaped as
        :meth:`ReplicatedJournal.append_many`: it returns those accepted."""
        self._journal = hook

    def journal_events(
        self, events: Sequence[tuple[str, dict]]
    ) -> Sequence["JournalRecord"]:
        """Append, then apply: journal a batch of ``(kind, data)`` records
        in one write, then fold the accepted ones of the ``_APPLIED``
        kinds through :meth:`apply`.  Returns the accepted records (``()``
        for a refused batch, which changes nothing); non-durable, the
        batch unjournaled."""
        if not events:
            return ()
        hook = self._journal
        if hook is not None:
            records = hook(self.job_id, events, self.manager_epoch)
        else:
            from .durability import JournalRecord

            job_id, epoch = self.job_id, self.manager_epoch
            records = [JournalRecord(0, job_id, k, epoch, "", d) for k, d in events]
        for record in records:
            if record.kind in _APPLIED:
                self.apply(record)
        return records

    def save_checkpoint(self, task: str, state: Any, tag: Any = None) -> None:
        """Persist an application checkpoint for *task* through the
        journal; a later attempt (same or successor manager) restores it
        via :meth:`load_checkpoint`."""
        checkpoint = {"task": task, "tag": tag, "state": state}
        self.journal_events([("checkpoint", checkpoint)])

    def load_checkpoint(self, task: str) -> Optional[tuple[Any, Any]]:
        """The latest ``(tag, state)`` checkpoint for *task*, or None."""
        with self._lock:
            return self._checkpoints.get(task)

    def apply(self, record: "JournalRecord") -> None:
        """Fold one journal record into this job: the one reading of each
        kind, run by :func:`~repro.cn.durability.replay_job` (adoption) and
        :meth:`journal_events`.  Records of other jobs, and records stamped
        below the highest manager epoch seen (the backends' fence, so a
        raw and a fenced stream fold alike), change nothing.  A task's
        state and a checkpoint are last-writer, attempts and placement
        epoch keep their maximum, deliveries accumulate in order and
        ``ledger-gc`` drops the prefix its cumulative watermark has not
        dropped yet (a duplicated record drops nothing)."""
        if record.job_id != self.job_id:
            return
        kind, data = record.kind, record.data
        with self._lock:
            if record.mepoch < self.manager_epoch:
                return
            self.manager_epoch = record.mepoch
            # the kinds the live path writes most often first
            if kind == "checkpoint":
                self._checkpoints[data["task"]] = (data.get("tag"), data.get("state"))
            elif kind == "delivery":
                log = self._delivery_log
                for message in data["messages"]:
                    log.setdefault(message.recipient, []).append(message)
                self.ledger_resident += len(data["messages"])
                self.ledger_peak = max(self.ledger_peak, self.ledger_resident)
            elif kind == "task-spec":
                spec = data["spec"]
                if spec.name in self.tasks:
                    self.tasks[spec.name].spec = spec
                    self._drive = self._roster = None
                else:
                    self.add_task(spec)
            elif kind == "ledger-gc":
                task, upto = data["task"], int(data.get("upto", 0))
                drop = upto - self.gc_watermarks.get(task, 0)
                if drop > 0:
                    messages = self._delivery_log.get(task, [])
                    dropped = min(drop, len(messages))
                    del messages[:drop]
                    self.ledger_resident -= dropped
                    self.ledger_truncated += dropped
                    self.gc_watermarks[task] = upto
            elif kind in ("job-created", "job-adopted"):
                self.manager = data.get("manager", self.manager)
                if kind == "job-created":
                    self.client_name = data.get("client", self.client_name)
            elif kind == "job-finished":
                self._finished_flag = True
            elif (runtime := self.tasks.get(data.get("task"))) is None:
                return  # about a task no spec was journaled for
            elif kind == "task-placed":
                runtime.node_name = data.get("node")
                runtime.epoch = max(runtime.epoch, int(data.get("epoch", 0)))
            elif kind == "task-state":
                runtime.state = TaskState(data.get("state", TaskState.PENDING.value))
                runtime.attempts = max(runtime.attempts, int(data.get("attempts", 0)))
                if "result" in data:
                    runtime.result = data["result"]
                if data.get("error"):
                    runtime.error = data["error"]
                # the live rule (note_terminal): the first failure fails the job
                if runtime.state is TaskState.FAILED and self.failed is None:
                    error = runtime.error or "unknown"
                    self.failed = TaskFailedError(runtime.name, error)

    # -- roster ----------------------------------------------------------------
    def add_task(self, spec: TaskSpec) -> TaskRuntime:
        with self._lock:
            if spec.name in self.tasks:
                raise JobError(f"job {self.job_id}: duplicate task {spec.name!r}")
            runtime = TaskRuntime(spec)
            self.tasks[spec.name] = runtime
            self.task_order.append(spec.name)
            # a new roster version: the drive's counts and the roster view
            # are re-derived by whoever reads them next
            self._drive = None
            self._roster = None
            return runtime

    def task(self, name: str) -> TaskRuntime:
        try:
            return self.tasks[name]
        except KeyError:
            raise UnknownTaskError(f"job {self.job_id}: no task {name!r}") from None

    def task_names(self) -> list[str]:
        return list(self.task_order)

    def roster(self) -> tuple[list[str], dict[str, tuple[str, ...]]]:
        """``(peers, dependencies)`` of the current roster version: the
        task names in roster order and each task's ``depends``, derived
        once per version and shared by every attempt's context (which
        copies what it keeps).  Read-only to callers."""
        with self._lock:
            roster = self._roster
            if roster is None:
                tasks = self.tasks
                roster = self._roster = (
                    list(self.task_order),
                    {name: tasks[name].spec.depends for name in self.task_order},
                )
            return roster

    # -- dependency queries --------------------------------------------------------
    def ready_tasks(self) -> list[TaskRuntime]:
        """CREATED tasks whose dependencies have all completed.

        This is the definition of readiness, read off the tasks' states
        by a scan of the whole roster -- the entry point of the paths
        that run once per job or per fault (``start_job``, recovery,
        adoption).  A completion does not scan: see :meth:`unblocked_by`."""
        with self._lock:
            return [
                self.tasks[name] for name in self.task_order if self.is_ready(name)
            ]

    def is_ready(self, name: str) -> bool:
        """One task's share of :meth:`ready_tasks`, O(its in-degree).  A
        dependency not in the roster (yet) has not completed."""
        with self._lock:
            tasks = self.tasks
            runtime = tasks[name]
            return runtime.state is TaskState.CREATED and all(
                d in tasks and tasks[d].state is TaskState.COMPLETED
                for d in runtime.spec.depends
            )

    def _dag(self) -> tuple[dict[str, list[str]], dict[str, int], set[str]]:
        """``(dependents, unmet, counted)``: the tasks naming each task in
        their ``depends`` (in roster order), each task's number of
        dependencies not COMPLETED yet, and the tasks whose completion
        those numbers include.  When the roster has grown since the last
        call all three are re-derived from the tasks' *current* states,
        which is what makes a roster rebuilt by adoption, or grown under
        running tasks, need no special case."""
        with self._lock:
            drive = self._drive
            if drive is None:
                tasks = self.tasks
                # Each state is read once, here.  States flip under the
                # TaskManager's lock, not this one: a task that completes
                # while the counts are being taken must be in `counted`
                # and in no count, or in neither -- then its callback,
                # which waits for this lock, takes it off exactly once.
                counted = {
                    name
                    for name in self.task_order
                    if tasks[name].state is TaskState.COMPLETED
                }
                dependents: dict[str, list[str]] = {}
                unmet: dict[str, int] = {}
                for name in self.task_order:
                    depends = set(tasks[name].spec.depends)
                    for dep in depends:
                        dependents.setdefault(dep, []).append(name)
                    # a dependency not in the roster (yet) is unmet
                    unmet[name] = len(depends - counted)
                drive = self._drive = (dependents, unmet, counted)
            return drive

    def unblocked_by(self, name: str) -> list[TaskRuntime]:
        """The CREATED tasks that task *name*, now COMPLETED, unblocked:
        the token reading of an AND-join.  Each dependent's count of unmet
        dependencies goes down once per completed task (a second call for
        the same task, or one for a completion the counts were derived
        after, decrements nothing), and the dependents standing at zero
        are returned for the caller to claim.  O(out-degree of *name*)."""
        with self._lock:
            if self.tasks[name].state is not TaskState.COMPLETED:
                return []
            dependents, unmet, counted = self._dag()
            first = name not in counted
            if first:
                counted.add(name)
            ready = []
            for dependent in dependents.get(name, ()):
                if first:
                    unmet[dependent] -= 1
                if unmet[dependent] == 0:
                    runtime = self.tasks[dependent]
                    if runtime.state is TaskState.CREATED:
                        ready.append(runtime)
            return ready

    def dependents_of(self, name: str) -> list[TaskRuntime]:
        with self._lock:
            return [self.tasks[t] for t in self._dag()[0].get(name, ())]

    # -- routing ----------------------------------------------------------------
    def _sized(self, payload: Any) -> tuple[int, str]:
        """Estimate *payload*'s wire size; returns ``(size, how)`` where
        *how* is ``"fast"`` (no serialization), ``"pickle"`` (fallback
        serialization), or ``"unsized"`` (unpicklable -- size 0 charged,
        the loss is counted rather than silently swallowed)."""
        size = payload_nbytes(payload)
        if size is not None:
            return size, "fast"
        try:
            size = len(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
            # unpicklable payloads are possible in-process; the wire
            # volume is unknowable, so count the miss instead of hiding it
            return 0, "unsized"
        return size, "pickle"

    def route(self, message: Message) -> None:
        """Deliver *message* to a task queue or the client queue.

        Single-message form of :meth:`route_many` -- same ledger,
        journal, and accounting semantics.
        """
        self.route_many((message,))

    def route_many(self, messages: Sequence[Message]) -> None:
        """Deliver a fan-out of messages in one data-plane operation.

        Compared with W independent :meth:`route` calls, a fan-out costs:

        * one :attr:`_lock` acquisition for all accounting + ledger
          appends (not one per message),
        * one size computation per *unique payload object* -- broadcast
          messages share their payload by reference, so the row-k
          broadcast of the guiding example is sized exactly once per
          round (and never pickled at all on the numpy fast path),
        * one journal append + one bus publish (one ``delivery`` record)
          for the whole fan-out instead of one per recipient.

        Semantics are unchanged from per-message routing: task-bound
        messages are journaled, then applied to the per-task delivery
        ledger, *before* queue delivery (a refused one is neither), so a
        recipient whose hosting just died (closed queue) -- or that has
        not been placed yet -- does not crash the sender: the message is
        kept and replayed into the fresh queue once the task is
        (re-)placed (see :meth:`replay_into`).  Delivery to tasks is
        therefore at-least-once across attempts, and each recipient's
        chaos fate (drop/delay) is rolled independently by its own queue.
        """
        if not messages:
            return
        if self.telemetry is not None:
            # stamp the job's causal context on unattributed messages (a
            # notification is built with it, see notify) so downstream
            # consumers can always walk back to a span; replace() re-uses
            # the existing serial/ts (no logical-clock disturbance)
            messages = [
                m if m.trace_ctx is not None
                else replace(m, trace_ctx=(self.job_id, "job"))
                for m in messages
            ]
        # resolve every recipient before mutating anything: an unknown
        # task name is a programming error and must not leave a partial
        # fan-out behind
        runtimes: dict[str, TaskRuntime] = {}
        for message in messages:
            recipient = message.recipient
            if recipient != "client" and recipient not in runtimes:
                runtimes[recipient] = self.task(recipient)
        # payload interning: one sizing per unique payload object per
        # fan-out, keyed by id() within this call only (no lifetime risk:
        # the messages keep their payloads alive for the duration)
        sizes: dict[int, int] = {}
        unique_sizes: list[int] = []
        total = sizings = reuses = pickled = unsized = 0
        for message in messages:
            key = id(message.payload)
            size = sizes.get(key)
            if size is not None:
                reuses += 1
                total += size
                continue
            size, how = self._sized(message.payload)
            sizes[key] = size
            unique_sizes.append(size)
            total += size
            sizings += 1
            if how == "pickle":
                pickled += 1
            elif how == "unsized":
                unsized += 1
        ledgered: list[Message] = []
        deliveries: list[tuple[MessageQueue, Message]] = []
        with self._lock:
            self.messages_routed += len(messages)
            self.payload_bytes += total
            self.payload_sizings += sizings
            self.payload_reuses += reuses
            self.payloads_pickle_sized += pickled
            self.payloads_unsized += unsized
            for message in messages:
                if message.recipient == "client":
                    deliveries.append((self.client_queue, message))
                    continue
                runtime = runtimes[message.recipient]
                if runtime.state.terminal:
                    # terminal tasks are never re-placed, so a ledger
                    # entry could never be replayed -- skip the ledger
                    # and journal, just attempt best-effort delivery
                    hosting = runtime.hosting
                    if hosting is not None and hosting.queue is not None:
                        deliveries.append((hosting.queue, message))
                    continue
                ledgered.append(message)
        if self._m_payload is not None:
            for size in unique_sizes:
                self._m_payload.observe(size)
        # write-ahead: ledger entries are journaled (and replicated to
        # peer managers), then applied, before queue delivery, so a
        # successor's replay sees every message a restarted attempt may
        # need: one ``delivery`` record (one local append + one bus
        # publish) whatever the fan-out width
        if ledgered and self.journal_events([("delivery", {"messages": ledgered})]):
            for message in ledgered:
                # an unplaced recipient (placement window or pending
                # re-placement) keeps the message ledgered; replay delivers
                # it once the task is hosted
                hosting = runtimes[message.recipient].hosting
                if hosting is not None:
                    queue = hosting.queue  # inbox()'s fast path, inline per message
                    if queue is None:
                        queue = hosting.inbox()
                    deliveries.append((queue, message))
        client_error: Optional[ShutdownError] = None
        for queue, message in deliveries:
            try:
                queue.put(message)
            except ShutdownError as exc:
                if queue is self.client_queue:
                    # no ledger covers the client conduit: surface the
                    # failure (after finishing the other recipients);
                    # notify records it, a sending task sees it
                    client_error = exc
                # a task queue closed mid-delivery (node crash, deadline
                # cancel): the ledger keeps the message for replay;
                # other recipients still get theirs
        if client_error is not None:
            raise client_error

    def notify(
        self,
        type: str,
        *payloads: Any,
        sender: str,
        origin: Optional[str] = None,
        span: Optional[str] = None,
    ) -> None:
        """Tell the client something happened: the one place a
        notification is built.  One message of *type* per payload goes
        through :meth:`route_many` as one batch (so accounting is the
        router's, as for any message); *span* is the id of the span it is
        caused by, and a job with telemetry attributes the rest to its
        root -- the context the router would stamp, set here so the router
        copies none of them.

        Never raises for a client that is gone: a closed conduit drops the
        notification onto :attr:`undeliverable` and the caller carries on
        -- what happened to the task does not depend on who is listening.
        """
        if span is None and self.telemetry is not None:
            span = "job"
        trace_ctx = None if span is None else (self.job_id, span)
        messages = [
            Message(
                type,
                sender=sender,
                recipient="client",
                payload=payload,
                origin=origin,
                trace_ctx=trace_ctx,
            )
            for payload in payloads
        ]
        try:
            self.route_many(messages)
        except ShutdownError as exc:
            for message in messages:
                self._drop(message, exc)

    def _drop(self, message: Message, exc: Exception) -> None:
        """Record that *message* could not be delivered (bounded; the
        counter is not)."""
        with self._lock:
            self.undeliverable.append(
                {
                    "type": message.type,
                    "recipient": message.recipient,
                    "serial": message.serial,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            del self.undeliverable[:-256]
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "cn_undeliverable_total", type=message.type
            ).inc()

    def attempt_ended(
        self,
        runtime: TaskRuntime,
        state: TaskState,
        error: Optional[str],
        reason: Optional[str],
        *,
        sender: str,
        on_terminal: Optional[Callable[["Job", TaskRuntime], None]],
        origin: Optional[str] = None,
        span: Optional[str] = None,
    ) -> None:
        """Publish how an attempt of *runtime* ended, given what it was
        classified as -- the *state* the task is now in (already applied),
        the *error* text and the *reason* tag, if any.  The message type
        and its payload are functions of those three; so is whether the
        task is over.

        Order: the client is told, then *on_terminal* (the JobManager's
        journal write, retry and cascade), then :meth:`note_terminal` --
        the finished event may wake a client that immediately shuts the
        cluster (and the journal backend) down, so the terminal records
        must already be written."""
        payload: dict[str, Any] = {"task": runtime.name}
        if state is TaskState.COMPLETED:
            payload["result"] = runtime.result
        elif state is TaskState.RETRYING:
            payload["attempt"] = runtime.attempts
            payload["max_retries"] = runtime.spec.max_retries
        if error is not None:
            payload["error"] = error
        if reason is not None:
            payload["reason"] = reason
        self.notify(
            _STATE_MESSAGE[state], payload, sender=sender, origin=origin, span=span
        )
        if on_terminal is not None:
            on_terminal(self, runtime)
        if state.terminal:
            self.note_terminal(runtime.name)

    def ledger(self) -> dict[str, list[Message]]:
        """The un-collected delivery ledger: task -> its ledgered messages
        in routing order (a copy; a task with none is left out)."""
        with self._lock:
            return {task: list(ms) for task, ms in self._delivery_log.items() if ms}

    def has_ledgered(self, name: str) -> bool:
        """Whether any un-GC'd deliveries are ledgered for *name*."""
        with self._lock:
            return bool(self._delivery_log.get(name))

    def replay_into(self, name: str) -> int:
        """Re-deliver every logged message for *name* into its (fresh)
        queue; used by the JobManager after re-placing a crashed task.
        Returns the number of messages replayed."""
        hosting = self.task(name).hosting
        if hosting is None:
            return 0
        with self._lock:
            pending = list(self._delivery_log.get(name, ()))
        if not pending:
            return 0
        delivered = hosting.inbox().put_many(pending)
        with self._lock:
            self.messages_replayed += delivered
        return delivered

    # -- ledger GC ---------------------------------------------------------------
    def gc_ledger(self, name: str) -> None:
        """Truncate *name*'s delivery ledger after its attempt reached a
        terminal state at the current epoch.

        Terminal tasks are never re-placed (recovery skips them), so
        their history can never be replayed -- holding it would keep the
        ledger O(total traffic) instead of O(in-flight traffic).  The
        truncation is journaled as a cumulative per-task watermark
        (``ledger-gc``), then applied, so a successor manager's replay
        agrees on exactly which prefix is gone."""
        with self._lock:
            count = len(self._delivery_log.get(name, ()))
            upto = self.gc_watermarks.get(name, 0) + count
        if count:
            self.journal_events([("ledger-gc", {"task": name, "upto": upto})])

    # -- completion ---------------------------------------------------------------
    def all_terminal(self) -> bool:
        """Whether every task of the roster is terminal.

        A cursor, not a scan: a terminal state is final (recovery skips
        terminal tasks, nothing re-places them), so the first task not yet
        terminal only ever moves towards the end of ``task_order`` and a
        job's completions advance it over each task once in total."""
        with self._lock:
            order, tasks = self.task_order, self.tasks
            cursor = self._first_live
            while cursor < len(order) and tasks[order[cursor]].state.terminal:
                cursor += 1
            self._first_live = cursor
            return cursor == len(order)

    def note_terminal(self, *names: str) -> None:
        """Called once the terminal tasks *names*' ``task-state`` (and any
        ``job-finished``) records are journaled; flips the job-finished
        condition once every task got this far -- counted, not read off
        the states, which a sibling applies before it journals them.  With
        no names it reads the count alone: a job with no task is over."""
        for name in names:
            # the attempt can never be re-placed again: its message history is
            # dead weight -- truncate and journal the watermark, its last record
            self.gc_ledger(name)
        with self._lock:
            noted = self._terminal_noted
            ended: list[tuple[str, str]] = []
            for name in names:
                runtime = self.tasks[name]
                if runtime.state is TaskState.FAILED and self.failed is None:
                    self.failed = TaskFailedError(name, runtime.error or "unknown")
                noted.add(name)
                ended.append((name, runtime.state.value))
            # fail fast: a failure finishes the job even with tasks pending
            finished = self.failed is not None or len(noted) == len(self.task_order)
            if finished:
                self._finished_flag = True
                self._cond.notify_all()
        if self.telemetry is not None:
            spans = self.telemetry.spans
            for name, state in ended:
                task_span = spans.get(self.job_id, f"task:{name}")
                if task_span is not None:
                    spans.end(task_span, state=state)
            if finished:
                span = spans.get(self.job_id, "job")
                if span is not None:
                    spans.end(span, failed=self.failed is not None)

    def mark_rebound(self) -> None:
        """Wake waiters because a successor manager re-bound this job id
        to a fresh :class:`Job`; blocked clients must re-resolve instead
        of waiting on an object that will never finish."""
        with self._lock:
            self._rebound = True
            self._cond.notify_all()

    def wait_or_rebind(self, timeout: Optional[float] = None) -> str:
        """Block until this job finishes or is re-bound elsewhere.

        Returns ``"rebound"`` (a failover replaced this object, finished or
        not: re-resolve through the directory), ``"finished"`` or ``"timeout"``.
        Unlike :meth:`wait` this never raises -- it is the api layer's
        low-level wake primitive.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._finished_flag or self._rebound, timeout
            )
            if self._rebound:
                return "rebound"
            return "finished" if self._finished_flag else "timeout"

    def wait(self, timeout: Optional[float] = None) -> dict[str, Any]:
        """Block until every task is terminal (or one fails).  Returns the
        result map; raises the first :class:`TaskFailedError` on failure.
        On timeout raises :class:`JobTimeoutError` carrying the per-task
        states, so "still running" is distinguishable from "wedged"."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._finished_flag, timeout):
                raise JobTimeoutError(self.job_id, timeout, self.states())
        if self.failed is not None:
            raise self.failed
        return self.results()

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._finished_flag

    def results(self) -> dict[str, Any]:
        return {
            name: runtime.result
            for name, runtime in self.tasks.items()
            if runtime.state is TaskState.COMPLETED
        }

    def states(self) -> dict[str, str]:
        return {name: runtime.state.value for name, runtime in self.tasks.items()}

    def __repr__(self) -> str:
        return f"<Job {self.job_id!r} tasks={len(self.tasks)}>"
