"""The CN Task interface and the context handed to running tasks.

"A Task is defined to be a unit of work that the user wants to perform"
(paper section 3).  User task classes subclass :class:`Task` (or simply
provide a compatible ``run``) and are packaged into archives; the
TaskManager instantiates them with their descriptor parameters and runs
``run(context)`` on a dedicated thread.

The :class:`TaskContext` exposes the CN API surface a task sees:

* its own name, its job's task roster,
* intertask messaging -- ``send``, ``broadcast``, ``recv``,
  ``recv_user`` (the CNAPI channel of section 2), and
* the job's tuple space (the alternative coordination channel section 3
  mentions).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional, Sequence

from .errors import TaskLoadError, UnknownTaskError
from .messages import Message
from .queues import MessageQueue
from .tuplespace import TupleSpace

__all__ = ["Task", "TaskContext", "FunctionTask", "run_attempt"]


class Task(abc.ABC):
    """Base class for user tasks.

    Subclasses receive their CNX ``<param>`` values as constructor
    arguments (coerced per the declared types) and implement :meth:`run`.
    The return value becomes the task's result, delivered to the client
    in the TASK_COMPLETED message and stored on the job.
    """

    #: the running attempt's context, set by :func:`run_attempt` just
    #: before ``run``; lets :meth:`checkpoint`/:meth:`restore` work without
    #: the task threading its context everywhere
    _ctx: Optional["TaskContext"] = None

    @abc.abstractmethod
    def run(self, ctx: "TaskContext") -> Any:
        """Execute the unit of work; the return value is the task result."""

    def on_cancel(self) -> None:  # pragma: no cover - cooperative hook
        """Called when the task is cancelled; override for cleanup."""

    # -- checkpoint API (durability extension) ---------------------------------
    def checkpoint(self, state: Any, tag: Any = None) -> bool:
        """Hand *state* to the job so a restarted attempt can pick up
        mid-algorithm (see :meth:`TaskContext.checkpoint`).  Returns True;
        False only when no attempt is running this task."""
        return self._ctx.checkpoint(state, tag) if self._ctx is not None else False

    def restore(self) -> Any:
        """The latest checkpointed state for this task, or None.  Call at
        the top of :meth:`run`; a non-None return means this attempt is a
        recovery and should resume instead of starting from scratch."""
        return self._ctx.restore() if self._ctx is not None else None


class FunctionTask(Task):
    """Adapter turning a plain callable into a Task (handy in tests)."""

    def __init__(self, *params: Any) -> None:
        self.params = params

    fn: Optional[Callable[..., Any]] = None

    def run(self, ctx: "TaskContext") -> Any:
        if type(self).fn is None:
            raise NotImplementedError("FunctionTask subclass must set fn")
        return type(self).fn(ctx, *self.params)  # type: ignore[misc]


class TaskContext:
    """Everything a running task may touch.

    The context is created by the TaskManager; ``_route_many`` is the
    job-level router delivering messages to sibling tasks or the client.
    """

    def __init__(
        self,
        *,
        task_name: str,
        job_id: str,
        node_name: str,
        peers: Sequence[str],
        queue: MessageQueue,
        route_many: Callable[[Sequence[Message]], None],
        tuple_space: TupleSpace,
        params: Sequence[Any] = (),
        dependencies: Optional[dict[str, tuple[str, ...]]] = None,
        attempt_epoch: int = 0,
        manager_epoch: int = 1,
        trace_ctx: Optional[tuple[str, str]] = None,
        checkpoint_save: Callable[[Any, Any], None],
        checkpoint_load: Callable[[], Optional[tuple[Any, Any]]],
    ) -> None:
        self.task_name = task_name
        self.job_id = job_id
        self.node_name = node_name
        self.peers = list(peers)
        self.params = list(params)
        self._queue = queue
        self._route_many = route_many
        self.tuple_space = tuple_space
        self.cancelled = False
        # job-wide dependency map (task -> its depends), letting tasks
        # discover their role in the DAG without naming conventions
        self.dependencies = dict(dependencies or {})
        #: this attempt's placement epoch -- strictly increasing across
        #: re-placements (and across manager adoptions), so receivers can
        #: prefer the newest attempt's messages when replay duplicates them
        self.attempt_epoch = attempt_epoch
        #: the managing JobManager's fencing epoch (bumped on adoption)
        self.manager_epoch = manager_epoch
        #: the causal context stamped on every message this task sends:
        #: the attempt's span once :meth:`bind_telemetry` ran (a worker
        #: process is handed it), the logical task span otherwise
        self.trace_ctx = trace_ctx or (job_id, f"task:{task_name}")
        self._checkpoint_save = checkpoint_save
        self._checkpoint_load = checkpoint_load
        # telemetry bindings, set by the TaskManager when the cluster has
        # a Telemetry hub (None otherwise; every hook degrades
        # to a no-op so task code never tests for telemetry itself)
        self._telemetry: Optional[Any] = None
        self._span: Optional[Any] = None
        self._origin = node_name.split("/")[0]

    # -- telemetry -------------------------------------------------------------
    def bind_telemetry(self, telemetry: Any, span: Any) -> None:
        """Attach this attempt's span + the metrics registry (TaskManager
        hook; tasks use :meth:`event` / :meth:`counter`)."""
        self._telemetry = telemetry
        self._span = span
        self.trace_ctx = (span.trace_id, span.span_id)

    def wire_fields(self) -> dict[str, Any]:
        """The plain-data half of this context as constructor keywords --
        what an ``exec`` frame carries and the worker process splats into
        its own context; the other half (queue, routers, tuple space,
        checkpoint callables) is rebuilt over the wire there."""
        return {
            "task_name": self.task_name,
            "job_id": self.job_id,
            "node_name": self.node_name,
            "peers": self.peers,
            "params": self.params,
            "dependencies": self.dependencies,
            "attempt_epoch": self.attempt_epoch,
            "manager_epoch": self.manager_epoch,
            "trace_ctx": self.trace_ctx,
        }

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event on this attempt's span (no-op without
        telemetry) -- the in-task annotation channel for timelines."""
        if self._telemetry is not None and self._span is not None:
            self._telemetry.spans.add_event(self._span, name, **attrs)

    def counter(self, name: str, **labels: Any) -> Any:
        """A live counter from the cluster registry, or a no-op stand-in;
        bind once outside loops (``hits = ctx.counter("app_hits")``)."""
        if self._telemetry is not None:
            return self._telemetry.metrics.counter(name, **labels)
        from .telemetry.metrics import NULL_COUNTER

        return NULL_COUNTER

    # -- DAG introspection ------------------------------------------------------
    def my_dependencies(self) -> list[str]:
        """Names of the tasks this task depends on (its data sources)."""
        return list(self.dependencies.get(self.task_name, ()))

    def my_dependents(self) -> list[str]:
        """Names of the tasks that depend on this task (its consumers)."""
        return [
            name
            for name, deps in self.dependencies.items()
            if self.task_name in deps
        ]

    # -- messaging ------------------------------------------------------------
    def send(self, recipient: str, payload: Any) -> None:
        """Send a user-defined message to a sibling task or ``client``
        (the fan-out of one)."""
        self.send_many(((recipient, payload),))

    def multicast(self, recipients: Sequence[str], payload: Any) -> int:
        """Send one user-defined *payload* to each of *recipients* as a
        single data-plane fan-out: every message shares the payload
        object by reference (zero-copy -- it is sized once, journaled
        once, delivered per recipient).  Returns the number of messages
        sent."""
        return self.send_many([(recipient, payload) for recipient in recipients])

    def send_many(self, pairs: Sequence[tuple[str, Any]]) -> int:
        """Send ``(recipient, payload)`` pairs as one data-plane fan-out
        through the job's batched router (one lock, one journal append,
        payload interning).  Recipients are validated up front, so an
        unknown name fails the whole call before anything is routed.
        Returns the number of messages sent."""
        trace_ctx = self.trace_ctx
        for recipient, _ in pairs:
            if recipient != "client" and recipient not in self.peers:
                raise UnknownTaskError(
                    f"{self.task_name!r} cannot send to unknown task "
                    f"{recipient!r}"
                )
        if pairs:
            self._route_many(
                [
                    Message.user(
                        self.task_name,
                        recipient,
                        payload,
                        origin=self._origin,
                        trace_ctx=trace_ctx,
                    )
                    for recipient, payload in pairs
                ]
            )
        return len(pairs)

    def broadcast(self, payload: Any, *, include_self: bool = False) -> None:
        """Send a user-defined message to every task in the job (one
        batched fan-out; the payload is shared by reference)."""
        self.multicast(
            [
                peer
                for peer in self.peers
                if include_self or peer != self.task_name
            ],
            payload,
        )

    def recv(self, timeout: Optional[float] = None) -> Message:
        """Next message addressed to this task (any type)."""
        return self._queue.get(timeout)

    def recv_user(self, timeout: Optional[float] = None) -> Message:
        """Next USER message (protocol traffic is skipped, stays queued)."""
        return self._queue.get_matching(Message.is_user, timeout)

    def recv_matching(
        self, predicate: Callable[[Message], bool], timeout: Optional[float] = None
    ) -> Message:
        """Selective receive; non-matching messages remain queued."""
        return self._queue.get_matching(predicate, timeout)

    def pending(self) -> int:
        return len(self._queue)

    # -- checkpointing (durability extension) --------------------------------
    def checkpoint(self, state: Any, tag: Any = None) -> bool:
        """Hand application *state* to the job; returns True.  The job
        keeps the latest state per task, so :meth:`restore` in a retried
        or re-placed attempt gets it back on every cluster.  On a durable
        cluster it is also journaled and replicated to the peer managers,
        which is what lets it survive a manager failover; with
        ``durable=False`` it lives in the managing node's job only.

        The contract, per transport: inproc -- saved on return; proc --
        one ``checkpoint`` frame, ordered, not acknowledged: saved before
        every message this attempt sends afterwards is routed and before
        its outcome is reported (one FIFO socket carries all three), and
        a save that fails fails the attempt."""
        self._checkpoint_save(state, tag)
        return True

    def restore(self) -> Any:
        """Load this task's latest checkpointed state, or None.

        Where the checkpoint is read (the hosting TaskManager) a found one
        is also announced to the client as TASK_RESUMED, so traces can
        verify that recovery resumed from the checkpoint rather than
        re-running from scratch."""
        found = self._checkpoint_load()
        if found is None:
            return None
        tag, state = found
        self.event("resumed-from-checkpoint", tag=tag)
        return state

    def __repr__(self) -> str:
        return f"<TaskContext {self.task_name!r} on {self.node_name!r}>"


def run_attempt(task_class: type, context: TaskContext) -> Any:
    """What an attempt is, on either side of the execution seam: construct
    the task from its descriptor params, bind its context, run it.
    Returns the task's result or raises what ``run`` raised."""
    try:
        instance = task_class(*context.params)
    except TypeError as exc:
        raise TaskLoadError(
            f"cannot construct {task_class.__name__} for task "
            f"{context.task_name!r} with params {context.params!r}: {exc}"
        ) from exc
    instance._ctx = context  # conclint: waive CC402 -- instance and context share this attempt's thread
    return instance.run(context)
