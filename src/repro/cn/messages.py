"""CN messaging model.

"CN uses messages as the fundamental information between the CN and the
client.  CN has well-defined messages that define the Message Request,
expected Message Action and expected Message Response.  Besides the
well-defined messages, CN also allows user-defined messages that only
the application (client and its tasks) understands." (paper section 3)

The model deliberately resembles the Windows/X message loop the paper
cites: every task owns a queue, messages are small typed records, and
the framework's own protocol messages share the transport with
user-defined application messages.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "MessageType",
    "Message",
    "WELL_DEFINED",
    "TASK_LIFECYCLE",
    "JOB_NOTIFICATIONS",
    "is_well_defined",
    "expected_response",
]


class MessageType:
    """Well-defined CN message types plus the USER escape hatch."""

    # client -> framework requests
    CREATE_JOB = "CREATE_JOB"
    CREATE_TASK = "CREATE_TASK"
    START_TASK = "START_TASK"
    CANCEL_TASK = "CANCEL_TASK"
    QUERY_STATUS = "QUERY_STATUS"
    SHUTDOWN = "SHUTDOWN"

    # framework -> client responses / notifications
    JOB_CREATED = "JOB_CREATED"
    TASK_CREATED = "TASK_CREATED"
    TASK_STARTED = "TASK_STARTED"
    TASK_COMPLETED = "TASK_COMPLETED"
    TASK_FAILED = "TASK_FAILED"
    TASK_RETRY = "TASK_RETRY"
    TASK_CANCELLED = "TASK_CANCELLED"
    TASK_TIMEOUT = "TASK_TIMEOUT"
    STATUS = "STATUS"
    JOB_COMPLETED = "JOB_COMPLETED"
    JOB_FAILED = "JOB_FAILED"
    # fault-tolerance notifications (repository extension): a node was
    # declared dead by the failure detector / a dynamic job shrank its
    # worker multiplicity to fit degraded cluster capacity
    NODE_FAILED = "NODE_FAILED"
    JOB_DEGRADED = "JOB_DEGRADED"
    # durability notifications (repository extension): a successor
    # JobManager adopted the job after its manager died / a task attempt
    # resumed from an application checkpoint instead of from scratch
    MANAGER_ADOPTED = "MANAGER_ADOPTED"
    TASK_RESUMED = "TASK_RESUMED"

    # application-defined payloads; CN is a pure delivery mechanism
    USER = "USER"


# request -> (expected action description, expected response types)
WELL_DEFINED: dict[str, tuple[str, tuple[str, ...]]] = {
    MessageType.CREATE_JOB: (
        "select a JobManager and create the job",
        (MessageType.JOB_CREATED,),
    ),
    MessageType.CREATE_TASK: (
        "solicit a TaskManager, upload the archive, set up the task queue",
        (MessageType.TASK_CREATED,),
    ),
    MessageType.START_TASK: (
        "execute the task in its own thread",
        (MessageType.TASK_STARTED,),
    ),
    MessageType.CANCEL_TASK: (
        "interrupt the task if running",
        (MessageType.TASK_CANCELLED,),
    ),
    MessageType.QUERY_STATUS: (
        "report job/task status",
        (MessageType.STATUS,),
    ),
    MessageType.SHUTDOWN: ("stop the component", ()),
}

#: The task lifecycle, said once: the ``TaskState`` value a task has
#: reached (None for an event that changes no state), the notification
#: that tells the client, and the kind :mod:`repro.cn.trace` files it
#: under.  How an attempt's ending becomes a message
#: (:meth:`repro.cn.job.Job.attempt_ended`) and how a message becomes a
#: trace event are both read off these rows.
TASK_LIFECYCLE: tuple[tuple[Optional[str], str, str], ...] = (
    ("CREATED", MessageType.TASK_CREATED, "created"),
    ("RUNNING", MessageType.TASK_STARTED, "started"),
    ("COMPLETED", MessageType.TASK_COMPLETED, "completed"),
    ("FAILED", MessageType.TASK_FAILED, "failed"),
    ("RETRYING", MessageType.TASK_RETRY, "retry"),
    ("CANCELLED", MessageType.TASK_CANCELLED, "cancelled"),
    (None, MessageType.TASK_TIMEOUT, "timeout"),
    (None, MessageType.TASK_RESUMED, "resumed"),
)

#: the notifications about a job as a whole -> their trace kind (None:
#: part of the protocol, not traced)
JOB_NOTIFICATIONS: dict[str, Optional[str]] = {
    MessageType.JOB_CREATED: "job-created",
    MessageType.STATUS: "status",
    MessageType.NODE_FAILED: "node-failed",
    MessageType.JOB_DEGRADED: "degraded",
    MessageType.MANAGER_ADOPTED: "adopted",
    MessageType.JOB_COMPLETED: None,
    MessageType.JOB_FAILED: None,
}

_NOTIFICATIONS = frozenset(JOB_NOTIFICATIONS) | {row[1] for row in TASK_LIFECYCLE}


def is_well_defined(message_type: str) -> bool:
    """Whether *message_type* is part of the CN protocol (not USER)."""
    return message_type in WELL_DEFINED or message_type in _NOTIFICATIONS


def expected_response(request_type: str) -> tuple[str, ...]:
    """The response types a well-defined request expects."""
    try:
        return WELL_DEFINED[request_type][1]
    except KeyError:
        raise KeyError(f"{request_type!r} is not a well-defined request") from None


_serial = itertools.count(1)
_serial_lock = threading.Lock()


def _next_serial() -> int:
    with _serial_lock:
        return next(_serial)


@dataclass(frozen=True)
class Message:
    """An immutable message record.

    ``sender`` / ``recipient`` are task names (or the reserved names
    ``client``, ``jobmanager``, ``taskmanager``).  ``serial`` gives a
    process-wide total order useful in tests and logs (a logical clock; no
    wall time involved, so runs are deterministic under a fixed schedule).

    ``ts`` is a monotonic timestamp taken at construction, so traces and
    the delivery ledger get real timing; ordering assertions must keep
    using ``serial`` (the logical clock), never ``ts``.  ``origin`` is
    the node that produced the message (None when built outside any
    node, e.g. by the client).  ``trace_ctx`` is the causal context --
    ``(trace_id, span_id)`` of the producing span -- stamped by the
    telemetry layer and propagated through queues, the bus, retries, and
    failover adoptions.
    """

    type: str
    sender: str
    recipient: str
    payload: Any = None
    serial: int = field(default_factory=_next_serial)
    ts: float = field(default_factory=time.monotonic, compare=False)
    origin: Optional[str] = None
    trace_ctx: Optional[tuple[str, str]] = None

    def is_user(self) -> bool:
        return self.type == MessageType.USER

    @staticmethod
    def user(
        sender: str,
        recipient: str,
        payload: Any,
        *,
        origin: Optional[str] = None,
        trace_ctx: Optional[tuple[str, str]] = None,
    ) -> "Message":
        """A user-defined message; CN merely delivers it."""
        return Message(
            MessageType.USER,
            sender,
            recipient,
            payload,
            origin=origin,
            trace_ctx=trace_ctx,
        )
