"""Concurrency annotations: the facts conclint checks.

This is the single registry both halves of conclint consult:

* the **static** passes (:mod:`.static`) use :data:`GUARDED_BY` to know
  which attributes must only be written under which lock, and
  :data:`BLOCKING_CALLS` to know which calls may block or re-enter;
* the **runtime** verifier (:mod:`.runtime`) uses :func:`guarded_by`
  declarations to check, at call time, that the declared lock is
  actually held by the current thread.

Facts are keyed by *class-level* names (``"Job._lock"``), not instances:
the lock-order graph must stay bounded no matter how many Jobs a run
creates, and a documented ordering between two *classes* of lock is what
a future transport refactor needs to preserve.

Waivers
-------
A known-safe site that would otherwise trip a static pass carries an
inline waiver comment::

    self._bus.publish(...)  # conclint: waive CC201 -- replicas must see appends in order

The justification after ``--`` is mandatory; a bare waiver is itself
reported (CC002) so waivers cannot silently accumulate.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, TypeVar

__all__ = [
    "GUARDED_BY",
    "BLOCKING_CALLS",
    "LOCK_ORDER_EXEMPT",
    "WAIVER_RE",
    "parse_waivers",
    "guarded_by",
]

# -- guarded-by facts ---------------------------------------------------------
#
# "Class.attr" -> "Class._lockname".  The static CC103 pass flags writes
# to these attributes outside a ``with self.<lockname>`` block; the
# runtime verifier's ``assert_held`` checks the same facts dynamically
# at the caller-must-hold helper sites that declare them with
# ``@guarded_by``.
GUARDED_BY: dict[str, str] = {
    # Job: the route ledger and the checkpoint store mutate under the
    # job's reentrant lock, and so does the DAG drive -- the (dependents,
    # unmet counts, counted completions) triple, derived and decremented
    # as one step -- the first-non-terminal-task cursor and the tasks whose
    # terminal records are written.
    "Job._delivery_log": "Job._lock",
    "Job._checkpoints": "Job._lock",
    "Job._drive": "Job._lock",
    "Job._first_live": "Job._lock",
    "Job._terminal_noted": "Job._lock",
    # TupleSpace: the backing list is only touched under the condition's
    # lock; ``_take`` relies on its caller holding it.
    "TupleSpace._tuples": "TupleSpace._lock",
    # Journals: the record list, the per-job index and the table of each
    # task's latest checkpoint change together inside ``extend`` (a
    # FileJournal inherits all three and persists from ``_persist``,
    # which documents "the lock is held"); the writer's sequence counter
    # advances under the lock that orders its extend+publish.
    "MemoryJournal._records": "MemoryJournal._lock",
    "MemoryJournal._by_job": "MemoryJournal._lock",
    "MemoryJournal._checkpoints": "MemoryJournal._lock",
    "FileJournal._by_job": "FileJournal._lock",
    "FileJournal._checkpoints": "FileJournal._lock",
    "ReplicatedJournal._next_seq": "ReplicatedJournal._lock",
    # TaskManager slot and memory accounting, and the count of hostings
    # that still hold a reservation (``_end_hosting`` is the one place
    # the three go down).
    "TaskManager._slots_used": "TaskManager._lock",
    "TaskManager._memory_used": "TaskManager._lock",
    "TaskManager._live": "TaskManager._lock",
    # Placement state: the archive-locality cache a bid scores mutates
    # with the hosting tables.
    "TaskManager._archive_cache": "TaskManager._lock",
    # ProcTransport worker-side telemetry coalescing buffer.
    "WorkerRuntime._frame_buffer": "WorkerRuntime._lock",
    # MulticastBus subscriber table.
    "MulticastBus._subscribers": "MulticastBus._lock",
    # AdmissionController: per-tenant token buckets, in-flight quotas,
    # and the decision counters all mutate under the admission lock.
    "AdmissionController._buckets": "AdmissionController._lock",
    "AdmissionController._in_flight": "AdmissionController._lock",
    "AdmissionController.counts": "AdmissionController._lock",
    # Transport-robustness slice: dead-letter bookkeeping mutates under
    # the job lock; the queue's poison counter under the queue condition;
    # the chaos fault log only ever grows under its dedicated lock.
    "Job.dead_letters": "Job._lock",
    "Job.messages_poisoned": "Job._lock",
    "MessageQueue.poisoned": "MessageQueue._cond",
    "ChaosPolicy.log": "ChaosPolicy._log_lock",
    # XSLT: the lowered program of a stylesheet is built once under the
    # sheet's lowering lock (double-checked; the unlocked read sees None
    # or the finished, immutable program) and shared by every thread.
    "Stylesheet._program": "Stylesheet._lower_lock",
}

# -- blocking / re-entrancy hazard table --------------------------------------
#
# Method names whose invocation under a held lock is a CC201 hazard:
# they may block indefinitely (queue handoff, journal fsync), re-enter
# arbitrary user code (bus callbacks), or acquire another lock.  Matched
# on the attribute name of a Call node (``anything.publish(...)``), so
# the table errs toward high-signal names that are unambiguous in this
# codebase.
BLOCKING_CALLS: dict[str, str] = {
    "publish": "bus publish fans out to subscriber callbacks",
    "solicit": "bus solicit blocks on subscriber replies",
    "put": "queue put may block on capacity/backpressure",
    "get": "queue get blocks until a message arrives",
    "append": "journal append does write-ahead I/O and replication",
    "extend": "journal extend does write-ahead I/O for a batch",
    "append_many": "journal batch append does write-ahead I/O and replication",
    "wait": "condition/event wait parks the thread",
    "join": "thread join blocks until the target exits",
}

# Callback-bearing attribute names: calling through one of these while
# holding a lock runs arbitrary user code under that lock (CC203).
CALLBACK_ATTRS = {"_callback", "_on_event", "_handler", "callback", "handler"}

# -- lock-order exemptions ----------------------------------------------------
#
# Module-level locks created at import time, before any verifier can be
# installed, and never nested with runtime locks.  The runtime verifier
# never sees them (they stay plain ``threading.Lock``); listing them here
# documents why and lets the static CC202 pass skip them.
LOCK_ORDER_EXEMPT: frozenset[str] = frozenset(
    {
        "_serial_lock",  # repro.cn.messages: module-scope id counter
    }
)

# -- waiver parsing -----------------------------------------------------------

WAIVER_RE = re.compile(
    r"#\s*conclint:\s*waive\s+(?P<codes>CC\d{3}(?:\s*,\s*CC\d{3})*)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)


def parse_waivers(source: str) -> tuple[dict[int, set[str]], list[int]]:
    """Extract waiver comments from *source*.

    Returns ``(waivers, bare)`` where *waivers* maps line number (1-based)
    to the set of waived CC codes effective on that line — a waiver on a
    comment-only line also covers the following line — and *bare* lists
    lines whose waiver carries no ``-- reason`` justification (CC002).
    """
    waivers: dict[int, set[str]] = {}
    bare: list[int] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = WAIVER_RE.search(text)
        if not match:
            continue
        codes = {c.strip() for c in match.group("codes").split(",")}
        if not match.group("reason"):
            bare.append(lineno)
        waivers.setdefault(lineno, set()).update(codes)
        if text.lstrip().startswith("#"):
            # comment-only line: the waiver targets the next line
            waivers.setdefault(lineno + 1, set()).update(codes)
    return waivers, bare


# -- the @guarded_by runtime declaration --------------------------------------

F = TypeVar("F", bound=Callable)


def guarded_by(lock_attr: str) -> Callable[[F], F]:
    """Declare that the decorated method requires ``self.<lock_attr>`` to
    be held by the calling thread.

    With no verifier installed this is free (the wrapper checks one
    module global and falls through); with ``verify_locking=True`` the
    lock must be an :class:`~.runtime.InstrumentedLock` and the call
    raises :class:`~.runtime.LockOrderError` if the current thread does
    not hold it.  The declaration is also machine-readable: the static
    CC103 pass cross-checks it against :data:`GUARDED_BY`.
    """

    def decorate(func: F) -> F:
        import functools

        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            from . import runtime

            verifier = runtime.current_verifier()
            if verifier is not None:
                lock = getattr(self, lock_attr, None)
                if isinstance(lock, runtime.InstrumentedLock):
                    lock.assert_held_by_me(
                        f"{type(self).__name__}.{func.__name__} requires {lock_attr}"
                    )
            return func(self, *args, **kwargs)

        wrapper.__conclint_guarded_by__ = lock_attr  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def declared_guard(func: Callable) -> Optional[str]:
    """The ``@guarded_by`` lock attribute of *func*, if declared."""
    return getattr(func, "__conclint_guarded_by__", None)
