"""Per-task message queues.

"TaskManager ... sets up a message queue for each Task and then executes
each Task in a separate thread" (paper section 3).  The queue is a FIFO
of :class:`Message` adding close semantics (a closed queue unblocks
waiters with :class:`~repro.cn.errors.ShutdownError`) and selective
receive (wait for a message matching a predicate while buffering the
rest), which tasks like the Floyd workers use to pull the k-th row
broadcast out of order from result traffic.

Queues may be *bounded* (``maxsize`` > 0) with an explicit backpressure
policy chosen at construction:

``block``
    producers wait until a consumer makes room (or the queue closes);
``reject``
    producers get :class:`~repro.cn.errors.Overloaded` immediately,
    carrying the depth/capacity so callers can back off;
``shed_oldest``
    the oldest undelivered message is evicted to admit the new one; the
    eviction is reported through the ``on_shed`` callback (invoked
    *after* the queue lock is released) so the owner can journal a
    ``shed`` record and the delivery ledger can replay it later --
    shedding trades latency for loss only if nobody journals.

The default stays unbounded for seed compatibility.  Capacity counts
only undelivered buffered messages: the selective-receive stash is
consumer-side (already delivered once), and chaos-delayed messages are
in-flight on the simulated link.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from ..analysis.conc.runtime import make_condition
from .chaos import REORDER_HOLD
from .errors import MessageTimeout, Overloaded, ShutdownError
from .messages import Message, corrupt_copy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .chaos import ChaosPolicy

__all__ = ["MessageQueue", "QUEUE_POLICIES"]

QUEUE_POLICIES = ("block", "reject", "shed_oldest")


class MessageQueue:
    """FIFO of :class:`Message` with close, bounds, and selective recv.

    An optional :class:`~repro.cn.chaos.ChaosPolicy` makes the queue a
    fault site: each ``put`` may be dropped (lossy link), delayed (held
    back and delivered just after the *next* successful put), duplicated
    (admitted twice, the at-least-once retransmit), reordered (held back
    for ``REORDER_HOLD`` successful puts -- a bounded reordering), or
    corrupted (the payload is damaged in flight).  Fate decisions are
    keyed by the per-queue delivery index, so a fixed chaos seed injects
    the same faults on every run.

    With ``verify_digests=True`` every dequeued message carrying a
    digest is re-checksummed; a mismatch is *quarantined* -- counted in
    ``poisoned``, reported through ``on_poison`` (invoked after the
    queue lock is released), and never handed to the consumer -- so a
    corrupt frame degrades to a per-job dead-letter record instead of
    crashing the task that would have deserialized it.
    """

    def __init__(
        self,
        owner: str,
        *,
        maxsize: int = 0,
        policy: str = "block",
        on_shed: Optional[Callable[[Message], None]] = None,
        chaos: "Optional[ChaosPolicy]" = None,
        verify_digests: bool = False,
        on_poison: Optional[Callable[[Message], None]] = None,
    ) -> None:
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; expected one of {QUEUE_POLICIES}"
            )
        self.owner = owner
        self.maxsize = int(maxsize)
        self.policy = policy
        self._on_shed = on_shed
        self._cond = make_condition("MessageQueue._cond")
        self._buffer: deque[Message] = deque()
        self._stash: list[Message] = []
        self._closed = False
        self._chaos = chaos
        # fate namespace: re-placed incarnations of the same owner roll
        # fresh fates (a retransmitted delivery re-rolls its luck)
        self._fate_ns = owner if chaos is None else chaos.register_queue(owner)
        self._put_index = 0
        self._verify = bool(verify_digests)
        self._on_poison = on_poison
        # chaos-held messages as [message, remaining-puts-before-release]
        # pairs: delay holds for 1 successful put, reorder for
        # ``REORDER_HOLD`` -- a bounded reordering window
        self._delayed: list[list] = []
        #: deepest the queue has ever been (a high watermark survives the
        #: drain that a point-in-time depth gauge would miss)
        self.high_watermark = 0
        #: producers refused under the ``reject`` policy
        self.rejected = 0
        #: messages evicted under the ``shed_oldest`` policy
        self.shed = 0
        #: messages quarantined at dequeue by digest verification
        self.poisoned = 0

    # -- producer side -----------------------------------------------------
    def put(self, message: Message) -> None:
        shed = self._put_locked(message, note_depth=True)
        self._dispatch_shed(shed)

    def put_many(self, messages: list[Message]) -> int:
        """Deliver a batch into the queue; returns how many were accepted.

        Each message still rolls its *own* chaos fate (drop/delay are
        per-delivery decisions keyed by the per-queue index, exactly as
        if :meth:`put` had been called per message), but the depth
        high-watermark is noted exactly once per batch.  Stops early and
        returns the partial count if the queue closes mid-batch."""
        delivered = 0
        shed: list[Message] = []
        try:
            for message in messages:
                try:
                    shed.extend(self._put_locked(message, note_depth=False))
                except ShutdownError:
                    break
                delivered += 1
        finally:
            with self._cond:
                self._note_depth_locked()
            self._dispatch_shed(shed)
        return delivered

    def _put_locked(self, message: Message, *, note_depth: bool) -> list[Message]:
        """Admit one message; returns evicted messages for the caller to
        report *after* the queue lock is released (journaling or user
        callbacks must never run under the lock)."""
        fate = "deliver"
        chaotic = self._chaos is not None and self._chaos.enabled
        if chaotic:
            with self._cond:
                if self._closed:
                    raise ShutdownError(f"queue for {self.owner!r} is closed")
                self._put_index += 1
                index = self._put_index
            fate = self._chaos.queue_fate(self._fate_ns, index)
            if fate == "drop":
                return []
        shed: list[Message] = []
        with self._cond:
            if self._closed:
                raise ShutdownError(f"queue for {self.owner!r} is closed")
            if fate in ("delay", "reorder"):
                hold = 1 if fate == "delay" else REORDER_HOLD
                self._delayed.append([message, hold])
                return []
            if fate == "corrupt":
                message = corrupt_copy(message)
            self._admit_locked(message, shed)
            if fate == "duplicate":
                # the at-least-once retransmit: the same frame (same
                # serial) admitted twice
                self._admit_locked(message, shed)
            if chaotic and self._delayed:
                self._release_held_locked(shed)
            if note_depth:
                self._note_depth_locked()
            self._cond.notify_all()
        return shed

    def _release_held_locked(self, shed_out: list[Message]) -> None:
        """A successful delivery ages every held-back message by one put;
        those whose hold expires are admitted (deterministic bounded
        reordering).  Under a full ``reject`` queue expired messages
        simply stay held until a later put finds room.  Caller holds
        ``_cond``."""
        still: list[list] = []
        for entry in self._delayed:
            if entry[1] > 1:
                entry[1] -= 1
                still.append(entry)
                continue
            if (
                self.maxsize
                and self.policy == "reject"
                and len(self._buffer) >= self.maxsize
            ):
                entry[1] = 1
                still.append(entry)
                continue
            self._admit_locked(entry[0], shed_out)
        self._delayed = still  # conclint: waive CC101 -- callers hold _cond (documented contract)

    def _admit_locked(self, message: Message, shed_out: list[Message]) -> None:
        """Apply the backpressure policy, then append.  Caller holds
        ``_cond``; evictions accumulate in *shed_out* for post-release
        dispatch."""
        if self.maxsize and len(self._buffer) >= self.maxsize:
            if self.policy == "reject":
                self.rejected += 1
                raise Overloaded(
                    self.owner, depth=len(self._buffer), maxsize=self.maxsize
                )
            if self.policy == "shed_oldest":
                while len(self._buffer) >= self.maxsize:
                    shed_out.append(self._buffer.popleft())
                    self.shed += 1
            else:  # block: wait for a consumer to make room
                while len(self._buffer) >= self.maxsize and not self._closed:
                    self._cond.wait()
                if self._closed:
                    raise ShutdownError(f"queue for {self.owner!r} is closed")
        self._buffer.append(message)  # conclint: waive CC101 -- callers hold _cond (documented contract)

    def _dispatch_shed(self, shed: list[Message]) -> None:
        if not shed or self._on_shed is None:
            return
        for message in shed:
            self._on_shed(message)

    def _note_depth_locked(self) -> None:
        depth = len(self._stash) + len(self._buffer) + len(self._delayed)
        if depth > self.high_watermark:
            self.high_watermark = depth

    def close(self) -> None:
        """Close the queue; pending and future getters raise ShutdownError
        once the already-buffered messages have been drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- consumer side -------------------------------------------------------
    def _poisoned(self, message: Message) -> bool:
        """Whether dequeue-time verification rejects *message* (pure
        check; the caller counts and quarantines)."""
        return self._verify and message.digest is not None and not message.digest_ok()

    def _dispatch_poison(self, message: Optional[Message]) -> None:
        """Report a quarantined frame.  Called with the queue lock
        released: the handler journals a dead-letter record and may
        re-offer the pristine ledgered copy via :meth:`put`, which
        re-acquires ``_cond``."""
        if message is None or self._on_poison is None:
            return
        self._on_poison(message)

    def get(self, timeout: Optional[float] = None) -> Message:
        """Next message in arrival order (stashed messages first).

        Messages failing digest verification are quarantined (never
        returned) and the wait continues against the original deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            poison: Optional[Message] = None
            with self._cond:
                while True:
                    if self._stash:
                        # stashed messages were verified when first
                        # dequeued by get_matching
                        return self._stash.pop(0)
                    if self._buffer:
                        message = self._buffer.popleft()
                        self._cond.notify_all()
                        if self._poisoned(message):
                            self.poisoned += 1
                            poison = message
                            break
                        return message
                    if self._closed:
                        raise ShutdownError(
                            f"queue for {self.owner!r} closed while waiting"
                        )
                    self._wait_locked(deadline, timeout)
            self._dispatch_poison(poison)

    def get_matching(
        self,
        predicate: Callable[[Message], bool],
        timeout: Optional[float] = None,
    ) -> Message:
        """Next message satisfying *predicate*; non-matching messages are
        stashed and later returned by :meth:`get` in their original order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        matched: Optional[Message] = None
        while True:
            poison: Optional[Message] = None
            with self._cond:
                for index, message in enumerate(self._stash):
                    if predicate(message):
                        return self._stash.pop(index)
                while True:
                    while self._buffer:
                        message = self._buffer.popleft()
                        self._cond.notify_all()
                        if self._poisoned(message):
                            self.poisoned += 1
                            poison = message
                            break
                        if predicate(message):
                            matched = message
                            break
                        self._stash.append(message)
                    if matched is not None or poison is not None:
                        break
                    if self._closed:
                        raise ShutdownError(
                            f"queue for {self.owner!r} closed while waiting"
                        )
                    self._wait_locked(deadline, timeout)
            if matched is not None:
                return matched
            self._dispatch_poison(poison)

    def _wait_locked(self, deadline: Optional[float], timeout: Optional[float]) -> None:
        """One bounded wait for new arrivals; caller holds ``_cond`` and
        loops re-checking state after every wake-up."""
        if deadline is None:
            self._cond.wait()
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not self._cond.wait(remaining):
            raise MessageTimeout(
                f"no message for {self.owner!r} within {timeout}s"
            )

    def drain(self) -> list[Message]:
        """All currently queued messages without blocking (including any
        chaos-delayed messages still held back)."""
        with self._cond:
            out: list[Message] = list(self._stash)
            self._stash.clear()
            out.extend(self._buffer)
            self._buffer.clear()
            out.extend(entry[0] for entry in self._delayed)
            self._delayed.clear()
            self._cond.notify_all()
            return out

    def __len__(self) -> int:
        with self._cond:
            return len(self._stash) + len(self._buffer) + len(self._delayed)
