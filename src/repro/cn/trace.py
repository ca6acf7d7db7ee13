"""Execution traces: structured views of a job's message history.

The client queue already receives every well-defined lifecycle message
(JOB_CREATED, TASK_CREATED/STARTED/COMPLETED/FAILED/RETRY/CANCELLED,
STATUS).  This module turns that stream into analysis-friendly records
and renderings:

* :func:`collect_trace` -- drain a job's client queue into
  :class:`TraceEvent` records (logical ordering by message serial),
* :class:`JobTrace` -- per-task lifecycle summaries (placement node,
  attempts, final state) plus consistency checks,
* :func:`render_timeline` -- a deterministic ASCII lifecycle table,
  the text analogue of a scheduler Gantt chart.

Everything here is read-only over the message stream; tracing never
perturbs scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .api import JobHandle
from .messages import JOB_NOTIFICATIONS, TASK_LIFECYCLE, Message

__all__ = [
    "TraceEvent",
    "TaskTrace",
    "JobTrace",
    "collect_trace",
    "render_timeline",
]

_LIFECYCLE = {message_type: kind for _, message_type, kind in TASK_LIFECYCLE}


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle event, ordered by the message's logical serial.

    ``ts`` carries the producing message's monotonic timestamp (0.0 for
    messages predating the timing extension); ordering must keep using
    ``serial``, the logical clock.
    """

    serial: int
    kind: str  # created | started | completed | failed | retry | cancelled | job-created | status
    task: Optional[str]
    node: Optional[str]
    detail: dict
    ts: float = 0.0


@dataclass
class TaskTrace:
    """Condensed lifecycle of one task."""

    name: str
    node: Optional[str] = None
    starts: int = 0
    retries: int = 0
    timeouts: int = 0
    #: attempts that resumed from an application checkpoint (durability)
    resumes: int = 0
    #: checkpoint tags the resumes restored from, in arrival order
    resumed_from: list = field(default_factory=list)
    final: Optional[str] = None  # completed | failed | cancelled

    @property
    def attempts(self) -> int:
        return self.starts


@dataclass
class JobTrace:
    """All events of one job plus per-task summaries."""

    job_id: str
    events: list[TraceEvent] = field(default_factory=list)
    tasks: dict[str, TaskTrace] = field(default_factory=dict)

    def task(self, name: str) -> TaskTrace:
        return self.tasks[name]

    def adoptions(self) -> list[TraceEvent]:
        """Manager-failover adoptions observed by this job's client."""
        return [e for e in self.events if e.kind == "adopted"]

    def consistency_problems(self) -> list[str]:
        """Sanity conditions every well-formed trace satisfies."""
        problems: list[str] = []
        for task in self.tasks.values():
            if task.final == "completed" and task.starts == 0:
                problems.append(f"{task.name}: completed without a start event")
            if task.retries and task.starts < task.retries + 1:
                problems.append(
                    f"{task.name}: {task.retries} retries but only "
                    f"{task.starts} starts"
                )
        serials = [e.serial for e in self.events]
        if serials != sorted(serials):
            problems.append("events out of logical order")
        return problems


def collect_trace(handle: JobHandle) -> JobTrace:
    """Drain *handle*'s client queue into a :class:`JobTrace`.

    Call after the job finishes (or at any quiescent point); messages are
    consumed from the queue, so collect once and keep the trace.
    """
    trace = JobTrace(job_id=handle.job_id)
    for message in sorted(handle.job.client_queue.drain(), key=lambda m: m.serial):
        event = _to_event(message)
        if event is None:
            continue
        trace.events.append(event)
        if event.task is None:
            continue
        task = trace.tasks.setdefault(event.task, TaskTrace(event.task))
        if event.kind == "created" and event.node:
            task.node = event.node
        elif event.kind == "started":
            task.starts += 1
            if event.node:
                task.node = event.node
        elif event.kind == "retry":
            task.retries += 1
        elif event.kind == "timeout":
            task.timeouts += 1
        elif event.kind == "resumed":
            task.resumes += 1
            task.resumed_from.append(event.detail.get("tag"))
        elif event.kind in ("completed", "failed", "cancelled"):
            task.final = event.kind
    return trace


def _to_event(message: Message) -> Optional[TraceEvent]:
    ts = message.ts
    payload = message.payload if isinstance(message.payload, dict) else {}
    kind = JOB_NOTIFICATIONS.get(message.type)
    if kind is not None:
        # about the job as a whole; only NODE_FAILED names a node
        return TraceEvent(
            message.serial, kind, None, payload.get("node"), dict(payload), ts
        )
    kind = _LIFECYCLE.get(message.type)
    if kind is None:
        return None  # user traffic is not lifecycle
    return TraceEvent(
        message.serial,
        kind,
        payload.get("task"),
        payload.get("node"),
        {k: v for k, v in payload.items() if k not in ("task", "node", "result")},
        ts,
    )


def render_timeline(trace: JobTrace) -> str:
    """Deterministic ASCII lifecycle table for *trace*."""
    lines = [f"job {trace.job_id}", ""]
    header = (
        f"{'task':<16} {'node':<12} {'starts':>6} {'retries':>7} "
        f"{'timeouts':>8}  final"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(trace.tasks):
        task = trace.tasks[name]
        lines.append(
            f"{task.name:<16} {(task.node or '?'):<12} {task.starts:>6} "
            f"{task.retries:>7} {task.timeouts:>8}  {task.final or 'pending'}"
        )
    lines.append("")
    lines.append("event sequence:")
    for event in trace.events:
        subject = event.task or "-"
        lines.append(f"  #{event.serial:<6} {event.kind:<12} {subject}")
    return "\n".join(lines) + "\n"
