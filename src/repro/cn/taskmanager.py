"""TaskManager: hosts and executes tasks on one node.

"TaskManager executes the various Tasks of various Jobs and is
transparent to the user. ... TaskManager in turn sets up a message queue
for each Task and then executes each Task in a separate thread when the
User program requests to start the Task." (paper section 3)

A task thread is not made per attempt: one whose attempt returned parks
until :meth:`TaskManager.start_task` hands it the next, and a new thread
is started only when none is parked, so a node holds no more task
threads than it ever had attempts in flight at once.
:meth:`TaskManager.shutdown` ends the parked ones.

Resource model: a TaskManager has a memory capacity (the unit matches
the descriptor's ``<memory>`` values) and a bounded number of execution
slots.  Hosting a task reserves its memory immediately (the JAR is
"uploaded" even before start, its queue built on first use); a slot is
consumed only while the task thread runs.  Both are released on terminal states.

Fault tolerance: the TaskManager is both a fault *site* (an attached
:class:`~repro.cn.chaos.ChaosPolicy` can crash or stall tasks at start,
or crash the whole node) and a failure *participant*: it emits
heartbeats (:meth:`beat`), can :meth:`crash` and :meth:`revive`, and
runs the per-task deadline watchdog (:meth:`expire_deadlines`).  Every
hosting carries an *epoch* -- a zombie attempt (its node crashed or the
task was re-placed elsewhere) discards its outcome instead of publishing
over the live attempt's state.
"""

from __future__ import annotations

import threading
import traceback
from queue import SimpleQueue
from typing import TYPE_CHECKING, Any, Callable, Optional, Type

from ..analysis.conc.runtime import make_lock
from .chaos import InjectedFault
from .errors import CnError, ShutdownError
from .job import Job, TaskRuntime, TaskState
from .messages import MessageType
from .queues import MessageQueue
from .runmodel import RunModel
from .scheduler import Bid, PlacementRule
from .task import Task, TaskContext
from .transport.inproc import InlineExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import ClusterConfig

__all__ = ["TaskManager", "HostedTask"]

_ENDED = MessageQueue("ended hosting")  # a hosting's queue if it ended unbuilt
_ENDED.close()


class HostedTask:
    """Bookkeeping for one task hosted by this TaskManager."""

    def __init__(
        self, tm: TaskManager, job: Job, runtime: TaskRuntime, task_class: Type[Task]
    ) -> None:
        self.manager = tm
        self.job = job
        self.runtime = runtime
        self.task_class = task_class
        #: this hosting's own queue: None until something uses it (see
        #: :meth:`inbox`), ``_ENDED`` if the hosting ended first
        self.queue: Optional[MessageQueue] = None
        #: the queue's chaos fate namespace, drawn at placement, built or not
        self.fate_ns = tm.chaos and tm.chaos.register_queue(f"{job.job_id}/{runtime.name}")
        self.context: Optional[TaskContext] = None
        #: the placement generation this hosting belongs to; stale when
        #: it no longer matches ``runtime.epoch``
        self.epoch = runtime.epoch
        #: virtual-clock time the task thread started (deadline anchor)
        self.started_at: Optional[float] = None
        #: set by the deadline watchdog before cancelling; routes the
        #: resulting ShutdownError into the retry path
        self.timed_out = False
        #: whether the hosting still holds what ``host_task`` and
        #: ``start_task`` reserved on its node (memory, the live count, a
        #: slot once started); cleared by ``TaskManager._end_hosting``
        self.reserved = True

    def inbox(self) -> MessageQueue:
        """This hosting's queue, built by the first delivery or read."""
        queue = self.queue
        return queue if queue is not None else self.manager.queue_of(self)


class TaskManager:
    """One node's task execution component."""

    def __init__(self, name: str, config: "ClusterConfig") -> None:
        self.name = name
        #: the execution seam: every attempt runs through this -- inline
        #: unless the node's transport hands over another (CNServer)
        self.executor = InlineExecutor()
        self.memory_capacity = config.memory_per_node
        self.slots = config.slots_per_node
        self.chaos = config.chaos
        self.clock = config.clock
        #: set by the Cluster: invoked when chaos decides this node dies
        self.crash_hook: Optional[Callable[[], None]] = None
        self._memory_used = 0
        self._slots_used = 0
        #: hostings of jobs still under way, by (job id, task name)
        self._hosted: dict[tuple[str, str], HostedTask] = {}
        #: hostings holding a reservation -- the bid scheduler's load
        self._live = 0
        #: archives (JAR names) already unpacked on this node -- makes
        #: the bid scheduler's "do I have this?" locality check O(1)
        self._archive_cache: set = set()
        self._lock = make_lock("TaskManager._lock")
        #: task threads parked between attempts, each with the inbox it
        #: waits on for the next one (see :meth:`_serve`)
        self._idle: list[tuple[threading.Thread, SimpleQueue]] = []
        self._shutdown = False
        self._crashed = False
        self._beats = 0
        self._starts = 0

    # -- capacity -----------------------------------------------------------
    @property
    def free_memory(self) -> int:
        with self._lock:
            return self.memory_capacity - self._memory_used

    @property
    def free_slots(self) -> int:
        with self._lock:
            return self.slots - self._slots_used

    @property
    def crashed(self) -> bool:
        with self._lock:
            return self._crashed

    def _room(self, memory: int, runmodel: RunModel, wanted: int = 1) -> int:
        """How many of *wanted* tasks of this shape the node could take
        right now; 0 when it can take none.  The one statement of the
        admission gates -- what a bid offers and what an upload is
        checked against.  The caller holds ``_lock``."""
        if self._shutdown or self._crashed or not self.executor.healthy():
            return 0  # a dead worker process takes no work either
        if memory > 0:
            fits = (self.memory_capacity - self._memory_used) // memory
            if fits < wanted:
                wanted = fits
        if runmodel.occupies_slot:
            free = self.slots - self._slots_used
            if free < wanted:
                wanted = free
        return wanted if wanted > 0 else 0

    def compute_bid(self, rule: PlacementRule) -> Optional[Bid]:
        """Score a placement rule locally and return this node's bid.

        This is the decentralized half of placement: the node -- not the
        JobManager -- expands the rule against its own state and answers
        with how many of the rule's tasks it could take and how good a
        home it would be.  Locality is O(1) per probe: archive presence
        comes from :attr:`_archive_cache` and upstream-producer presence
        from the ``_hosted`` map.  Returns None when the node cannot take
        any task from the rule (no answer on the bus).  One lock hold,
        one :meth:`_room`.
        """
        with self._lock:
            capacity = self._room(rule.memory, rule.runmodel, len(rule.tasks))
            if not capacity:
                return None
            locality = 1 if rule.jar in self._archive_cache else 0
            for dep in rule.depends:
                if (rule.job_id, dep) in self._hosted:
                    locality += 1
            return Bid(
                self.name,
                capacity,
                self.memory_capacity - self._memory_used,
                self._live,
                locality,
            )

    # -- liveness --------------------------------------------------------------
    def beat(self) -> Optional[dict]:
        """One heartbeat (published on the bus by Cluster.tick); a crashed
        or shut-down node is silent."""
        with self._lock:
            if self._crashed or self._shutdown:
                return None
            if not self.executor.healthy():
                # a dead worker process silences the node: the ordinary
                # failure detector declares it and recovery re-places work
                return None
            self._beats += 1
            return {
                "node": self.name,
                "beat": self._beats,
                "hosted": len(self._hosted),
            }

    def crash(self) -> None:
        """Simulate abrupt node death: end every hosting, wake/cancel
        every running task thread.  Threads keep running as zombies until
        they notice, but the epoch fence discards their outcomes (see
        :meth:`_apply_outcome`)."""
        with self._lock:
            if self._crashed:
                return
            self._crashed = True
            hosted = list(self._hosted.values())
            for h in hosted:
                self._end_hosting(h)
        for h in hosted:
            self._cancel(h)

    def revive(self) -> None:
        """Bring a crashed node back empty (a rebooted machine)."""
        with self._lock:
            self._crashed = False
            self._archive_cache.clear()

    # -- hosting --------------------------------------------------------------
    def host_task(self, job: Job, runtime: TaskRuntime, task_class: Type[Task]) -> None:
        """Accept a task: reserve memory, hold a slot for its message queue.

        This is the receiving end of the JobManager's archive upload; the
        class object stands in for the unpacked JAR.
        """
        with self._lock:
            if self._shutdown:
                raise ShutdownError(f"TaskManager {self.name!r} is shut down")
            if self._crashed:
                raise ShutdownError(f"TaskManager {self.name!r} has crashed")
            if not self._room(runtime.spec.memory, runtime.spec.runmodel):
                raise CnError(
                    f"TaskManager {self.name!r} cannot host {runtime.name!r}: "
                    f"free memory {self.free_memory}, requested {runtime.spec.memory}"
                )
            self._memory_used += runtime.spec.memory
            runtime.node_name = self.name
            runtime.state = TaskState.CREATED
            runtime.epoch += 1
            self._archive_cache.add(runtime.spec.jar)
            hosted = runtime.hosting = HostedTask(self, job, runtime, task_class)
            self._hosted[(job.job_id, runtime.name)] = hosted
            self._live += 1

    def queue_of(self, hosted: HostedTask) -> MessageQueue:
        """*hosted*'s queue, built under this lock unless it ended first."""
        with self._lock:
            if hosted.queue is None:
                hosted.queue = MessageQueue(
                    hosted.fate_ns or f"{hosted.job.job_id}/{hosted.runtime.name}",
                    chaos=self.chaos,
                )
            return hosted.queue

    def _cancel(self, hosted: HostedTask) -> None:
        """Wake whatever runs *hosted* so it unwinds with ShutdownError:
        close its queue, which a chaos-stalled attempt waits for."""
        context = hosted.context  # read once: the task thread clears it when done
        if context is not None:
            context.cancelled = True
        with self._lock:
            if hosted.queue is None:
                hosted.queue = _ENDED
        hosted.queue.close()

    def _end_hosting(self, hosted: HostedTask, *, exited: bool = False) -> None:
        """The one way a hosting ends.

        Gives back what :meth:`host_task` and :meth:`start_task` reserved
        for it -- memory, the live count, the slot -- exactly once: at
        once when no task thread will (it never started, or the node is
        dead), else when its thread exits (*exited*).  Every caller but
        the exiting thread also forgets the hosting, which fences any
        outcome it still produces (see :meth:`_apply_outcome`); the thread
        leaves it for the job's later tasks to find as a local producer
        until the job is over (:meth:`release_job`).  It stops being its
        task's hosting, so no cycle keeps a finished job alive."""
        with self._lock:
            key = (hosted.job.job_id, hosted.runtime.name)
            if not exited and self._hosted.get(key) is hosted:
                del self._hosted[key]
            if hosted.runtime.hosting is hosted:
                hosted.runtime.hosting = None
            started = hosted.started_at is not None
            if hosted.queue is None and (exited or not started):
                hosted.queue = _ENDED  # nothing will read it: build none
            if hosted.reserved and (exited or not started or self._crashed):
                hosted.reserved = False
                self._live -= 1
                self._memory_used -= hosted.runtime.spec.memory
                if started and hosted.runtime.spec.runmodel.occupies_slot:
                    self._slots_used -= 1

    def start_task(
        self,
        job: Job,
        name: str,
        *,
        on_terminal: Optional[Callable[[Job, TaskRuntime], None]] = None,
        claim_only: bool = False,
    ) -> bool:
        """Run the task on a task thread of this node (per its run
        model): a parked one if any, else a new one.

        With ``claim_only`` a task that is not in CREATED state -- or
        whose hosting vanished underneath a node crash -- is simply not
        started (returns False) instead of raising; the scheduler paths
        (start_job, completion cascade, recovery) race benignly on the
        same ready set and use this to claim each task exactly once."""
        with self._lock:
            hosted = self._hosted.get((job.job_id, name))
            if hosted is None:
                if claim_only:
                    return False
                raise CnError(f"TaskManager {self.name!r} does not host {name!r}")
            runtime = hosted.runtime
            if runtime.state is not TaskState.CREATED:
                if claim_only:
                    return False
                raise CnError(
                    f"task {name!r} cannot start from state {runtime.state.value}"
                )
            if runtime.spec.runmodel.occupies_slot:
                self._slots_used += 1
            runtime.state = TaskState.RUNNING
            hosted.started_at = self.clock.now()
            self._starts += 1
            starts = self._starts
            parked = self._idle.pop() if self._idle else None
        thread_name = f"cn-task-{job.job_id}-{name}"
        job.notify(
            MessageType.TASK_STARTED,
            {"task": name, "node": self.name},
            sender=self.name,
            origin=self.name.split("/")[0],
            span=f"task:{name}",
        )
        if parked is None:
            inbox: SimpleQueue = SimpleQueue()
            threading.Thread(
                target=self._serve, args=(inbox,), name=thread_name, daemon=True
            ).start()
        else:
            thread, inbox = parked
            thread.name = thread_name
        inbox.put((hosted, on_terminal))
        chaos = self.chaos
        if chaos is not None and chaos.enabled and chaos.node_crash_due(self.name, starts):
            hook = self.crash_hook
            if hook is not None:
                hook()  # Cluster.kill_node: crash + leave the subnet
            else:
                self.crash()
        return True

    def _serve(self, inbox: SimpleQueue) -> None:
        """A task thread: run each attempt :meth:`start_task` puts in
        *inbox*, parking in between, until shutdown puts None.  An
        exception escaping an attempt ends the thread (and reaches
        ``threading.excepthook``) instead of parking it."""
        me = threading.current_thread()
        while (work := inbox.get()) is not None:
            self._run_task(*work)
            # parked, the thread holds nothing of the attempt that ran
            work = None
            me.name = f"cn-task-parked-{self.name}"
            with self._lock:
                if self._shutdown:
                    return
                self._idle.append((me, inbox))

    def _run_task(
        self,
        hosted: HostedTask,
        on_terminal: Optional[Callable[[Job, TaskRuntime], None]],
    ) -> None:
        job, runtime = hosted.job, hosted.runtime
        origin = self.name.split("/")[0]
        span_id = f"attempt:{runtime.name}#{hosted.epoch}"

        def checkpoint_save(state: Any, tag: Any = None) -> None:
            # coordinator-side on both transports, behind the fence an
            # outcome passes: a zombie attempt's state must not replace
            # (and so free) what the live attempt resumes from.  The
            # journal write is not made under this lock, so a zombie
            # preempted between the check and the save through a whole
            # kill / re-place / first live checkpoint still lands late
            with self._lock:
                if self._stale(hosted):
                    return
            job.save_checkpoint(runtime.name, state, tag)

        def checkpoint_load() -> Optional[tuple[Any, Any]]:
            # coordinator-side on both transports, so a resume is
            # announced where the checkpoint is read, by the job
            found = job.load_checkpoint(runtime.name)
            if found is not None:
                job.notify(
                    MessageType.TASK_RESUMED,
                    {
                        "task": runtime.name,
                        "node": self.name,
                        "tag": found[0],
                        "attempt_epoch": hosted.epoch,
                    },
                    sender=runtime.name,
                    origin=origin,
                    span=span_id,
                )
            return found

        peers, dependencies = job.roster()
        context = TaskContext(
            task_name=runtime.name,
            job_id=job.job_id,
            node_name=self.name,
            peers=peers,
            queue=hosted.inbox,  # built on the attempt's first read
            route_many=job.route_many,
            tuple_space=job.tuple_space,
            params=runtime.spec.params,
            dependencies=dependencies,
            attempt_epoch=hosted.epoch,
            manager_epoch=job.manager_epoch,
            checkpoint_save=checkpoint_save,
            checkpoint_load=checkpoint_load,
        )
        hosted.context = context
        runtime.attempts += 1
        attempt = runtime.attempts
        t = job.telemetry
        span = None
        if t is not None:
            # one attempt span per hosting epoch, sibling of any earlier
            # attempts under the same logical task span
            span = t.spans.begin(
                job.job_id,
                span_id,
                name=f"{runtime.name}#{hosted.epoch}",
                kind="attempt",
                parent_id=f"task:{runtime.name}",
                node=origin,
                task=runtime.name,
                epoch=hosted.epoch,
                attempt=attempt,
            )
            context.bind_telemetry(t, span)
        result: Any = None
        state, error, reason = TaskState.COMPLETED, None, None
        try:
            chaos = self.chaos
            if chaos is not None and chaos.enabled:
                if chaos.should_crash_task(job.job_id, runtime.name, attempt):
                    raise InjectedFault(
                        f"chaos: injected crash of {runtime.name!r} "
                        f"(attempt {attempt}) on {self.name}"
                    )
                if chaos.should_stall(job.job_id, runtime.name, attempt):
                    # a hung task: block until something cancels us (the
                    # deadline watchdog, a node crash, job cancellation)
                    hosted.inbox().wait_closed()
                    raise ShutdownError(
                        f"chaos-stalled task {runtime.name!r} cancelled"
                    )
            # the execution seam: either side returns the result or raises
            # exactly what run_attempt(task_class, context) raised
            result = self.executor.execute(hosted, context)
        except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- whatever an attempt raises is classified into its ending, never lost
            state, error, reason = self._ending(hosted, attempt, exc)
        finally:
            self._end_hosting(hosted, exited=True)
            # the context's checkpoint closures hold `hosted`: let go of it
            # (after _ending read `cancelled`) so an ended attempt is freed
            # by reference count, not by the next full collection
            hosted.context = None
        applied = self._apply_outcome(hosted, state, result, error)
        if span is not None:
            if applied:
                t.spans.end(span, state=state.value)
                t.metrics.histogram(
                    "cn_task_duration_seconds", node=origin
                ).observe(span.end - span.start)
                t.metrics.counter(
                    "cn_task_outcomes_total", outcome=state.value
                ).inc()
            else:
                # the fence discarded this run; mark the span so the
                # critical-path fold can skip it as a zombie
                t.spans.end(span, fenced=True)
        if not applied:
            return  # zombie attempt: node crashed / task re-placed; discard
        job.attempt_ended(
            runtime,
            state,
            error,
            reason,
            sender=self.name,
            on_terminal=on_terminal,
            origin=origin,
            span=span_id,
        )

    def _ending(
        self, hosted: HostedTask, attempt: int, raised: Exception
    ) -> tuple[TaskState, Optional[str], Optional[str]]:
        """How an attempt that *raised* ended, as ``(state, error,
        reason)`` -- the one classification (one that returned is
        ``(COMPLETED, None, None)``).  From what it raised, whether the
        watchdog timed it out, whether it was cancelled and whether retry
        budget is left; everything said about the ending afterwards
        (message type, payload, whether the task is over) follows from the
        triple (:meth:`Job.attempt_ended`)."""
        spec = hosted.runtime.spec
        retry = attempt <= spec.max_retries
        if isinstance(raised, ShutdownError):
            if not hosted.timed_out:
                return TaskState.CANCELLED, None, None
            error = (
                f"deadline {spec.deadline}s exceeded on {self.name} "
                f"(attempt {attempt})"
            )
            if retry:
                # deadline expiry with retry budget: back into the retry path
                return TaskState.RETRYING, error, "timeout"
            return TaskState.FAILED, error + "; retry budget exhausted", None
        error = "".join(traceback.format_exception(raised))
        if retry and not hosted.context.cancelled:  # type: ignore[union-attr]
            # failure with retry budget left: hand back to the JobManager
            # for re-placement instead of failing the job
            return TaskState.RETRYING, error, None
        return TaskState.FAILED, error, None

    def _stale(self, hosted: HostedTask) -> bool:
        """Whether *hosted* stopped being its task's live hosting (node
        crash, eviction, re-placement); the caller holds the lock."""
        runtime = hosted.runtime
        return (
            self._crashed
            or runtime.epoch != hosted.epoch
            or self._hosted.get((hosted.job.job_id, runtime.name)) is not hosted
        )

    def _apply_outcome(
        self,
        hosted: HostedTask,
        state: TaskState,
        result: Any,
        error: Optional[str],
    ) -> bool:
        """Atomically publish a run's outcome unless the hosting went
        stale (node crash, eviction, re-placement) while it ran."""
        runtime = hosted.runtime
        with self._lock:
            if self._stale(hosted):
                return False
            if state is TaskState.COMPLETED:
                runtime.result = result
            if error is not None:
                runtime.error = error
            runtime.state = state
        return True

    # -- deadlines ------------------------------------------------------------
    def expire_deadlines(self, now: Optional[float] = None) -> list[str]:
        """Cancel running tasks past their deadline into the retry path.

        The deadline is the task's own (``TaskSpec.deadline``), in
        seconds from the attempt's start.  Driven by :meth:`Cluster.tick`;
        *now* is virtual-clock time.  Returns the names of the tasks timed
        out on this call."""
        if now is None:
            now = self.clock.now()
        expired: list[tuple[HostedTask, float]] = []
        with self._lock:
            if self._crashed or self._shutdown:
                return []
            for h in self._hosted.values():
                deadline = h.runtime.spec.deadline
                if (
                    deadline is not None
                    and not h.timed_out
                    and h.runtime.state is TaskState.RUNNING
                    and h.started_at is not None
                    and now - h.started_at >= deadline
                    and h.epoch == h.runtime.epoch
                ):
                    h.timed_out = True
                    expired.append((h, deadline))
        for h, deadline in expired:
            h.job.notify(
                MessageType.TASK_TIMEOUT,
                {
                    "task": h.runtime.name,
                    "node": self.name,
                    "deadline": deadline,
                    "attempt": h.runtime.attempts,
                },
                sender=self.name,
            )
            self._cancel(h)
        return [h.runtime.name for h, _ in expired]

    def evict(self, job: Job, name: str) -> None:
        """Forget a hosted task (used when a retry re-places elsewhere)."""
        with self._lock:
            hosted = self._hosted.get((job.job_id, name))
            if hosted is not None:
                self._end_hosting(hosted)

    def evict_job(self, job_id: str) -> list[str]:
        """Evict and cancel every hosting of *job_id* on this node.

        Used by a successor JobManager adopting the job after a failover:
        any attempts the dead manager placed here become zombies -- their
        queues close, their threads unblock with ShutdownError, and the
        hosted-identity fence in :meth:`_apply_outcome` discards whatever
        outcome they produce.  Returns the evicted task names."""
        with self._lock:
            victims = [h for key, h in self._hosted.items() if key[0] == job_id]
            for h in victims:
                self._end_hosting(h)
        for h in victims:
            self._cancel(h)
        return [h.runtime.name for h in victims]

    def release_job(self, job_id: str) -> None:
        """*job_id* is over (finished, failed or cancelled): end every
        hosting of it that no task thread is running here.  One still
        running is left to publish its outcome; the JobManager calls
        again when it does."""
        with self._lock:
            for key, h in list(self._hosted.items()):
                if key[0] == job_id and (h.started_at is None or not h.reserved):
                    self._end_hosting(h)

    # -- cancellation / shutdown ---------------------------------------------------
    def cancel_task(self, job: Job, name: str) -> bool:
        """Cooperatively cancel: flag the context and close the queue so a
        blocked receive unblocks with ShutdownError.  A task that never
        started has no thread to unwind, so its hosting ends here, CANCELLED
        in the same lock hold a start would claim it in, and its closed
        queue, which nothing will read, is let go; returns whether it was
        one (its caller says so, see :meth:`JobManager.cancel_job`).  A
        hosting of the job id that another :class:`Job` placed -- a
        successor's, cancelled from a dead manager's copy -- is left be."""
        with self._lock:
            hosted = self._hosted.get((job.job_id, name))
            if hosted is None or hosted.job is not job:
                return False
            unstarted = hosted.started_at is None
            if unstarted:
                self._end_hosting(hosted)
                hosted.runtime.state = TaskState.CANCELLED
        self._cancel(hosted)
        return unstarted

    def hosted_count(self) -> int:
        with self._lock:
            return self._live

    def queued_messages(self) -> int:
        """Messages sitting in this node's hosted task queues right now --
        the per-node backpressure signal (``cn_node_queued_messages``)."""
        with self._lock:
            live = [h.queue for h in self._hosted.values() if h.epoch == h.runtime.epoch]
        return sum(len(queue) for queue in live if queue is not None)

    def shutdown(self) -> None:
        """Cancel every hosting and end every parked task thread; one
        still running an attempt ends when the attempt does."""
        with self._lock:
            self._shutdown = True
            hosted = list(self._hosted.values())
            parked, self._idle = self._idle, []
        for h in hosted:
            self._cancel(h)
        for _, inbox in parked:
            inbox.put(None)
        for thread, _ in parked:
            thread.join()

    def __repr__(self) -> str:
        return (
            f"<TaskManager {self.name!r} mem {self._memory_used}/"
            f"{self.memory_capacity} slots {self._slots_used}/{self.slots}>"
        )
