"""Tuple-space coordination (Linda-style).

The paper notes that "CN also supports communication via tuple spaces"
(section 3) without detailing them; we implement the classic Linda
primitives so the repository can compare message-passing and tuple-space
coordination for the same workload (an ablation DESIGN.md calls out):

* ``out(t)``    -- deposit a tuple,
* ``in_(p)``    -- blocking withdraw of a tuple matching pattern *p*,
* ``rd(p)``     -- blocking read without withdrawal,
* ``inp/rdp``   -- non-blocking variants returning ``None`` on miss.

A pattern is a tuple the same length as candidates where ``None`` is a
wildcard and any other entry must compare equal; a type object matches
any value of that type (``(k, int, None)`` styles).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..analysis.conc.annotations import guarded_by
from ..analysis.conc.runtime import make_condition, make_lock
from .errors import MessageTimeout

__all__ = ["TupleSpace", "matches"]


def matches(pattern: Sequence[Any], candidate: Sequence[Any]) -> bool:
    """Whether *candidate* matches *pattern* (length, wildcards, types)."""
    if len(pattern) != len(candidate):
        return False
    for want, have in zip(pattern, candidate):
        if want is None:
            continue
        if isinstance(want, type):
            if not isinstance(have, want):
                return False
            continue
        if want != have:
            return False
    return True


class TupleSpace:
    """A shared associative store with blocking pattern withdrawal."""

    def __init__(self) -> None:
        self._tuples: list[tuple] = []
        self._lock = make_lock("TupleSpace._lock", reentrant=False)
        self._changed = make_condition("TupleSpace._lock", self._lock)

    def out(self, t: Sequence[Any]) -> None:
        """Deposit tuple *t* (sequence is frozen to a tuple)."""
        with self._changed:
            self._tuples.append(tuple(t))
            self._changed.notify_all()

    @guarded_by("_lock")
    def _take(self, pattern: Sequence[Any], remove: bool) -> Optional[tuple]:
        for index, candidate in enumerate(self._tuples):
            if matches(pattern, candidate):
                if remove:
                    # every call site sits inside `with self._changed`, and the
                    # @guarded_by declaration above enforces it dynamically
                    # inside verified_locks().
                    # conclint: waive CC103 -- caller must hold _lock (see above)
                    return self._tuples.pop(index)
                return candidate
        return None

    def in_(self, pattern: Sequence[Any], timeout: Optional[float] = None) -> tuple:
        """Withdraw a matching tuple, blocking until one appears."""
        with self._changed:
            result = self._take(pattern, remove=True)
            while result is None:
                if not self._changed.wait(timeout):
                    raise MessageTimeout(f"in_({pattern!r}) timed out after {timeout}s")
                result = self._take(pattern, remove=True)
            return result

    def rd(self, pattern: Sequence[Any], timeout: Optional[float] = None) -> tuple:
        """Read (copy) a matching tuple, blocking until one appears."""
        with self._changed:
            result = self._take(pattern, remove=False)
            while result is None:
                if not self._changed.wait(timeout):
                    raise MessageTimeout(f"rd({pattern!r}) timed out after {timeout}s")
                result = self._take(pattern, remove=False)
            return result

    def inp(self, pattern: Sequence[Any]) -> Optional[tuple]:
        """Non-blocking withdraw; ``None`` if nothing matches."""
        with self._changed:
            return self._take(pattern, remove=True)

    def rdp(self, pattern: Sequence[Any]) -> Optional[tuple]:
        """Non-blocking read; ``None`` if nothing matches."""
        with self._changed:
            return self._take(pattern, remove=False)

    def count(self, pattern: Optional[Sequence[Any]] = None) -> int:
        """Number of stored tuples (matching *pattern* when given)."""
        with self._lock:
            if pattern is None:
                return len(self._tuples)
            return sum(1 for t in self._tuples if matches(pattern, t))

    def snapshot(self) -> list[tuple]:
        """A copy of the current contents (for inspection/tests)."""
        with self._lock:
            return list(self._tuples)
