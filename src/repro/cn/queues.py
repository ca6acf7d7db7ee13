"""Per-task message queues.

"TaskManager ... sets up a message queue for each Task and then executes
each Task in a separate thread" (paper section 3), built here on first
use (:meth:`~repro.cn.taskmanager.HostedTask.inbox`).  The queue is a FIFO
of :class:`Message` adding close semantics (a closed queue unblocks
waiters with :class:`~repro.cn.errors.ShutdownError`) and selective
receive (wait for a message matching a predicate while buffering the
rest), which tasks like the Floyd workers use to pull the k-th row
broadcast out of order from result traffic.

Queues are unbounded, as in the paper.  The selective-receive stash is
consumer-side (already delivered once), and chaos-delayed messages are
in-flight on the simulated link.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from ..analysis.conc.runtime import make_condition
from .chaos import REORDER_HOLD
from .errors import MessageTimeout, ShutdownError
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .chaos import ChaosPolicy

__all__ = ["MessageQueue"]


class MessageQueue:
    """FIFO of :class:`Message` with close and selective recv.

    An optional :class:`~repro.cn.chaos.ChaosPolicy` makes the queue a
    fault site: each ``put`` may be dropped (lossy link), delayed (held
    back and delivered just after the *next* successful put), duplicated
    (admitted twice, the at-least-once retransmit), reordered (held back
    for ``REORDER_HOLD`` successful puts -- a bounded reordering).  Fate
    decisions are keyed by *owner* (the fate namespace a hosting drew at
    placement) and the per-queue delivery index, so a fixed chaos seed
    injects the same faults on every run.
    """

    def __init__(
        self,
        owner: str,
        *,
        chaos: "Optional[ChaosPolicy]" = None,
    ) -> None:
        self.owner = owner
        self._cond = make_condition("MessageQueue._cond")
        self._buffer: deque[Message] = deque()
        self._stash: list[Message] = []
        self._closed = False
        self._chaos = chaos
        self._put_index = 0
        # chaos-held messages as [message, remaining-puts-before-release]
        # pairs: delay holds for 1 successful put, reorder for
        # ``REORDER_HOLD`` -- a bounded reordering window
        self._delayed: list[list] = []

    # -- producer side -----------------------------------------------------
    def put(self, message: Message) -> None:
        fate = "deliver"
        chaotic = self._chaos is not None and self._chaos.enabled
        if chaotic:
            with self._cond:
                if self._closed:
                    raise ShutdownError(f"queue for {self.owner!r} is closed")
                self._put_index += 1
                index = self._put_index
            fate = self._chaos.queue_fate(self.owner, index)
            if fate == "drop":
                return
        with self._cond:
            if self._closed:
                raise ShutdownError(f"queue for {self.owner!r} is closed")
            if fate in ("delay", "reorder"):
                hold = 1 if fate == "delay" else REORDER_HOLD
                self._delayed.append([message, hold])
                return
            self._buffer.append(message)
            if fate == "duplicate":
                # the at-least-once retransmit: the same frame (same
                # serial) admitted twice
                self._buffer.append(message)
            if chaotic and self._delayed:
                # a successful delivery ages every held-back message by
                # one put; those whose hold expires are admitted
                # (deterministic bounded reordering)
                still: list[list] = []
                for entry in self._delayed:
                    if entry[1] > 1:
                        entry[1] -= 1
                        still.append(entry)
                    else:
                        self._buffer.append(entry[0])
                self._delayed = still
            self._cond.notify_all()

    def put_many(self, messages: list[Message]) -> int:
        """Deliver a batch into the queue; returns how many were accepted.

        Each message rolls its *own* chaos fate (drop/delay are
        per-delivery decisions keyed by the per-queue index, exactly as
        if :meth:`put` had been called per message).  Stops early and
        returns the partial count if the queue closes mid-batch."""
        delivered = 0
        for message in messages:
            try:
                self.put(message)
            except ShutdownError:
                break
            delivered += 1
        return delivered

    def close(self) -> None:
        """Close the queue; pending and future getters raise ShutdownError
        once the already-buffered messages have been drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def wait_closed(self) -> None:
        """Block until the queue is closed (a chaos-stalled attempt)."""
        with self._cond:
            while not self._closed:
                self._cond.wait()

    # -- consumer side -------------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Message:
        """Next message in arrival order (stashed messages first)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._stash:
                    return self._stash.pop(0)
                if self._buffer:
                    message = self._buffer.popleft()
                    self._cond.notify_all()
                    return message
                if self._closed:
                    raise ShutdownError(
                        f"queue for {self.owner!r} closed while waiting"
                    )
                self._wait_locked(deadline, timeout)

    def get_matching(
        self,
        predicate: Callable[[Message], bool],
        timeout: Optional[float] = None,
    ) -> Message:
        """Next message satisfying *predicate*; non-matching messages are
        stashed and later returned by :meth:`get` in their original order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            for index, message in enumerate(self._stash):
                if predicate(message):
                    return self._stash.pop(index)
            while True:
                while self._buffer:
                    message = self._buffer.popleft()
                    self._cond.notify_all()
                    if predicate(message):
                        return message
                    self._stash.append(message)
                if self._closed:
                    raise ShutdownError(
                        f"queue for {self.owner!r} closed while waiting"
                    )
                self._wait_locked(deadline, timeout)

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
