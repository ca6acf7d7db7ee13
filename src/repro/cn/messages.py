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
import pickle
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Optional

__all__ = [
    "MessageType",
    "Message",
    "WELL_DEFINED",
    "TASK_LIFECYCLE",
    "JOB_NOTIFICATIONS",
    "is_well_defined",
    "expected_response",
    "payload_digest",
    "corrupt_copy",
    "CORRUPT_MARKER",
]

#: sentinel planted by :func:`corrupt_copy` -- the simulated bit-flip a
#: faulty link applies to a frame's payload while leaving the envelope
#: (serial, digest) intact
CORRUPT_MARKER = "__cn_corrupt__"


def payload_digest(payload: Any) -> Optional[int]:
    """CRC32 over the payload's canonical (pickled) frame bytes.

    This is the transport checksum: the router stamps it on outbound
    messages (:meth:`Message.seal`) and queues re-verify it at dequeue,
    so a frame corrupted in flight is detected *before* a task consumes
    it.  Returns None for unpicklable payloads -- they can never cross a
    real wire, so they ride unprotected in-process (the same graceful
    degradation the size accounting applies).
    """
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
        return None
    return zlib.crc32(blob)


def corrupt_copy(message: "Message") -> "Message":
    """A damaged copy of *message*: same serial and digest, payload
    replaced by a corruption sentinel -- what a fault on the link would
    deliver.  With checksums enabled the digest no longer matches and
    dequeue-time verification quarantines the frame; without checksums
    the damage flows through undetected (exactly the failure mode the
    checksum exists to close)."""
    return replace(message, payload=(CORRUPT_MARKER, message.serial))


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
    ``client``, ``jobmanager``, ``taskmanager``).  ``correlation`` ties a
    response to its request.  ``serial`` gives a process-wide total order
    useful in tests and logs (a logical clock; no wall time involved, so
    runs are deterministic under a fixed schedule).

    ``ts`` is a monotonic timestamp taken at construction, so traces and
    the delivery ledger get real timing; ordering assertions must keep
    using ``serial`` (the logical clock), never ``ts``.  ``origin`` is
    the node that produced the message (None when built outside any
    node, e.g. by the client).  ``trace_ctx`` is the causal context --
    ``(trace_id, span_id)`` of the producing span -- stamped by the
    telemetry layer and propagated through queues, the bus, retries, and
    failover adoptions.  ``deadline`` is the end-to-end job deadline in
    cluster-clock time (absolute, not a duration): the router stamps it
    from the job budget and every hop downstream can compare it against
    the cluster clock to drop work that is already doomed.

    ``digest`` is the optional CRC32 transport checksum over the payload
    (:func:`payload_digest`), stamped by :meth:`seal` on the sending side
    and re-verified by queues at dequeue when checksums are enabled.
    None means the frame is unprotected (checksums off, or unpicklable
    payload) and verification passes it through.
    """

    type: str
    sender: str
    recipient: str
    payload: Any = None
    correlation: Optional[int] = None
    serial: int = field(default_factory=_next_serial)
    ts: float = field(default_factory=time.monotonic, compare=False)
    origin: Optional[str] = None
    trace_ctx: Optional[tuple[str, str]] = None
    deadline: Optional[float] = None
    digest: Optional[int] = field(default=None, compare=False)

    def seal(self) -> "Message":
        """A copy carrying the CRC32 digest of the current payload.

        Idempotent in effect: re-sealing an unmodified message computes
        the same digest.  If the payload cannot be pickled the digest
        stays None and the frame rides unprotected.
        """
        return replace(self, digest=payload_digest(self.payload))

    def digest_ok(self) -> bool:
        """Whether the payload still matches its sealed digest.

        Unsealed frames (digest None) vacuously pass -- absence of a
        checksum is "unprotected", not "corrupt".
        """
        if self.digest is None:
            return True
        return payload_digest(self.payload) == self.digest

    def is_user(self) -> bool:
        return self.type == MessageType.USER

    def reply(
        self,
        type: str,
        sender: str,
        payload: Any = None,
        *,
        origin: Optional[str] = None,
    ) -> "Message":
        """Build the response message correlated with this request.

        The reply inherits the request's ``trace_ctx`` (a response is
        causally downstream of the span that sent the request) and its
        ``deadline`` (answering a request does not buy more budget).
        """
        return Message(
            type=type,
            sender=sender,
            recipient=self.sender,
            payload=payload,
            correlation=self.serial,
            origin=origin,
            trace_ctx=self.trace_ctx,
            deadline=self.deadline,
        )

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
