"""Concurrency annotations: the facts conclint checks.

This is the single registry both halves of conclint consult:

* the **static** passes (:mod:`.static`) use :data:`GUARDED_BY` to know
  which attributes must only be written under which lock (the calls
  that may block or re-enter are :mod:`.static`'s own ``_BLOCKING``
  table);
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
from typing import Callable, TypeVar

__all__ = [
    "GUARDED_BY",
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
    # as one step -- the roster view attempts are handed, the
    # first-non-terminal-task cursor and the tasks whose terminal records
    # are written.
    "Job._delivery_log": "Job._lock",
    "Job._checkpoints": "Job._lock",
    "Job._drive": "Job._lock",
    "Job._roster": "Job._lock",
    "Job._first_live": "Job._lock",
    "Job._terminal_noted": "Job._lock",
    # JobManager: the job table and what its retired jobs counted, which
    # a registry read (another thread) copies through JobManager.census.
    "JobManager.jobs": "JobManager._lock",
    "JobManager._retired_routed": "JobManager._lock",
    "JobManager._retired_unsized": "JobManager._lock",
    # JobDirectory: the registrations marks are serials of, and the
    # record of finished jobs that says which one leaves.
    "JobDirectory._registered": "JobDirectory._lock",
    "JobDirectory._finished": "JobDirectory._lock",
    # TupleSpace: the backing list is only touched under the condition's
    # lock; ``_take`` relies on its caller holding it.
    "TupleSpace._tuples": "TupleSpace._lock",
    # Journals: each job's log and the table of each task's latest
    # checkpoint change inside ``extend`` (a FileJournal inherits both
    # and persists from ``_persist``, which documents "the lock is
    # held"); the writer's sequence counter advances under the lock that
    # orders its extend+publish.
    "MemoryJournal._by_job": "MemoryJournal._lock",
    "MemoryJournal._checkpoints": "MemoryJournal._lock",
    "MemoryJournal._finished": "MemoryJournal._lock",
    "FileJournal._by_job": "FileJournal._lock",
    "FileJournal._checkpoints": "FileJournal._lock",
    "FileJournal._finished": "FileJournal._lock",
    "ReplicatedJournal._next_seq": "ReplicatedJournal._lock",
    # TaskManager slot and memory accounting, and the count of hostings
    # that still hold a reservation (``_end_hosting`` is the one place
    # the three go down).
    "TaskManager._slots_used": "TaskManager._lock",
    "TaskManager._memory_used": "TaskManager._lock",
    "TaskManager._live": "TaskManager._lock",
    # The task threads parked between attempts: popped by ``start_task``,
    # pushed back by a thread whose attempt returned unless shutdown has
    # already taken the list.
    "TaskManager._idle": "TaskManager._lock",
    # Placement state: the archive-locality cache a bid scores mutates
    # with the hosting tables.
    "TaskManager._archive_cache": "TaskManager._lock",
    # ProcTransport worker-side telemetry coalescing buffer.
    "WorkerRuntime._frame_buffer": "WorkerRuntime._lock",
    # MulticastBus rosters and partition map: each is replaced whole
    # under the lock, and a round reads each once under it.
    "MulticastBus._subscribers": "MulticastBus._lock",
    "MulticastBus._listeners": "MulticastBus._lock",
    "MulticastBus._groups": "MulticastBus._lock",
    # The chaos fault log only ever grows under its dedicated lock.
    "ChaosPolicy.log": "ChaosPolicy._log_lock",
    # XSLT: the compiled program of a stylesheet is built once under the
    # sheet's lock (double-checked; the unlocked read sees None or the
    # finished, immutable program) and shared by every thread.
    "Stylesheet._program": "Stylesheet._lower_lock",
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
    module global and falls through); inside ``verified_locks()`` the
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
