"""Runtime lock-order / deadlock verifier (lockdep for the CN runtime).

Enabled with ``Cluster(verify_locking=True)`` and free when off: :func:`make_lock` returns a *plain*
``threading.Lock``/``RLock`` unless a verifier is installed, so the
disabled hot path pays nothing — not even an attribute indirection.

With a verifier installed, every lock the runtime creates through
:func:`make_lock` is an :class:`InstrumentedLock` that

* keeps a per-thread stack of currently-held locks,
* records a directed edge ``A -> B`` into a global **lock-order graph**
  whenever a thread acquires B while holding A, tagged with a *witness*
  (the acquisition call sites of both locks and the thread name),
* distinguishes RLock *reentrancy* (same instance, refcounted — no
  edge) from *cross-instance* nesting of the same lock class (an
  ``A -> A`` self-edge: two threads doing it in opposite instance
  order deadlock),
* measures held time per lock class.

Nodes are **class-level** names (``"Job._lock"``), not instances, so the
graph stays bounded no matter how many Jobs a run creates and a cycle
means "some interleaving of this program can deadlock", which is exactly
the invariant a transport refactor must preserve.  At teardown
:meth:`LockVerifier.check` runs cycle detection and raises
:class:`LockOrderError` listing every cycle with both witness stacks.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = [
    "LockOrderError",
    "Witness",
    "InstrumentedLock",
    "LockVerifier",
    "install_verifier",
    "uninstall_verifier",
    "current_verifier",
    "make_lock",
    "make_condition",
]


class LockOrderError(RuntimeError):
    """A lock-order cycle, guarded-by violation, or assert-held failure."""


def _call_site(skip: int = 2, depth: int = 3) -> str:
    """A compact ``file:line in func`` trail of the acquisition site,
    skipping frames inside this module."""
    frames = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # shallower stack than requested
        return "<unknown>"
    while frame is not None and len(frames) < depth:
        filename = frame.f_code.co_filename
        if not filename.endswith(("conc/runtime.py", "conc/annotations.py")):
            short = "/".join(filename.split("/")[-2:])
            frames.append(f"{short}:{frame.f_lineno} in {frame.f_code.co_name}")
        frame = frame.f_back
    return " <- ".join(frames) if frames else "<unknown>"


@dataclass(frozen=True)
class Witness:
    """Evidence for one lock-order edge: where the already-held lock was
    taken, where the new one was, and on which thread."""

    holder: str
    acquired: str
    holder_site: str
    acquired_site: str
    thread: str

    def render(self) -> str:
        return (
            f"{self.holder} -> {self.acquired} [thread {self.thread}]\n"
            f"      held   {self.holder} from {self.holder_site}\n"
            f"      taking {self.acquired} at   {self.acquired_site}"
        )

    def to_dict(self) -> dict[str, str]:
        return {
            "holder": self.holder,
            "acquired": self.acquired,
            "holder_site": self.holder_site,
            "acquired_site": self.acquired_site,
            "thread": self.thread,
        }


@dataclass
class _Held:
    """One entry on a thread's held-lock stack."""

    name: str
    lock_id: int
    site: str
    t0: float
    count: int = 1


@dataclass
class _HeldStats:
    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def observe(self, dt: float) -> None:
        self.count += 1
        self.total += dt
        if dt > self.max:
            self.max = dt


class LockVerifier:
    """The global lock-order graph and per-thread held-lock stacks."""

    def __init__(self, *, clock=None) -> None:
        import time

        self._clock = clock or time.perf_counter
        self._tls = threading.local()
        # A raw lock (never instrumented — the verifier must not verify
        # itself) guarding the shared tables below.
        self._meta = threading.Lock()
        self._edges: dict[tuple[str, str], Witness] = {}
        self._violations: list[str] = []
        self._held_stats: dict[str, _HeldStats] = {}
        self._metrics = None  # optional telemetry MetricsRegistry

    # -- wiring ---------------------------------------------------------------
    def attach_metrics(self, registry: Any) -> None:
        """Export held-time observations into a PR 4 telemetry
        ``MetricsRegistry`` as ``cn_lock_held_seconds{lock=<name>}``."""
        self._metrics = registry

    # -- per-thread stack -----------------------------------------------------
    def _stack(self) -> list[_Held]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def note_acquired(self, name: str, lock_id: int) -> None:
        stack = self._stack()
        if stack and stack[-1].lock_id == lock_id:
            stack[-1].count += 1  # RLock reentrancy: no new edge
            return
        for held in stack:
            if held.lock_id == lock_id:
                # Reentrant re-acquire with other locks taken in between
                # (with A: with B: with A again) — legal for an RLock,
                # no new edge, but keep the refcount on the original.
                held.count += 1
                return
        site = _call_site()
        for held in stack:
            self._record_edge(held, name, site)
        stack.append(_Held(name, lock_id, site, self._clock()))

    def note_released(self, name: str, lock_id: int) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].lock_id == lock_id:
                held = stack[index]
                held.count -= 1
                if held.count == 0:
                    del stack[index]
                    self._observe_held(name, self._clock() - held.t0)
                return
        with self._meta:
            self._violations.append(
                f"release of {name} not held by thread "
                f"{threading.current_thread().name} at {_call_site()}"
            )

    def detach_for_wait(self, lock_id: int) -> Optional[_Held]:
        """Pop the full stack entry for a condition wait (the lock is
        released however many times it was reentrantly held)."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].lock_id == lock_id:
                held = stack[index]
                del stack[index]
                self._observe_held(held.name, self._clock() - held.t0)
                return held
        return None

    def reattach_after_wait(self, held: Optional[_Held]) -> None:
        if held is None:
            return
        # Re-acquisition after a wait re-establishes the hold but adds no
        # edges: the blocking order was already recorded at first acquire,
        # and a woken waiter conventionally holds nothing else.
        held.t0 = self._clock()
        self._stack().append(held)

    def holds(self, lock_id: int) -> bool:
        return any(h.lock_id == lock_id for h in self._stack())

    def held_names(self) -> list[str]:
        return [h.name for h in self._stack()]

    # -- the graph ------------------------------------------------------------
    def _record_edge(self, held: _Held, acquired: str, site: str) -> None:
        # held.name == acquired means same lock class, different
        # instance: two threads nesting in opposite instance order
        # deadlock.  It lands as a self-edge, which cycle detection
        # reports like any other cycle.
        key = (held.name, acquired)
        with self._meta:
            if key not in self._edges:
                self._edges[key] = Witness(
                    holder=held.name,
                    acquired=acquired,
                    holder_site=held.site,
                    acquired_site=site,
                    thread=threading.current_thread().name,
                )

    def _observe_held(self, name: str, dt: float) -> None:
        with self._meta:
            self._held_stats.setdefault(name, _HeldStats()).observe(dt)
        if self._metrics is not None:
            try:
                self._metrics.histogram("cn_lock_held_seconds", lock=name).observe(dt)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- telemetry must never break the runtime
                pass

    def edges(self) -> dict[tuple[str, str], Witness]:
        with self._meta:
            return dict(self._edges)

    def find_cycles(self) -> list[list[Witness]]:
        """Elementary cycles in the lock-order graph (one per strongly
        connected component, plus self-loops), as witness chains."""
        edges = self.edges()
        graph: dict[str, set[str]] = {}
        for holder, acquired in edges:
            graph.setdefault(holder, set()).add(acquired)
            graph.setdefault(acquired, set())

        cycles: list[list[Witness]] = []
        for holder, acquired in edges:
            if holder == acquired:
                cycles.append([edges[(holder, acquired)]])

        # Tarjan's SCC: any component of size > 1 contains a cycle.
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[list[str]] = []

        def strongconnect(v: str) -> None:
            work = [(v, iter(sorted(graph[v])))]
            index_of[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index_of:
                        index_of[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(graph[w]))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index_of[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == node:
                            break
                    if len(component) > 1:
                        sccs.append(component)

        for vertex in sorted(graph):
            if vertex not in index_of:
                strongconnect(vertex)

        for component in sccs:
            members = set(component)
            # Walk one cycle inside the component: follow in-component
            # successors from the smallest member until it repeats.
            start = min(component)
            path = [start]
            seen = {start}
            node = start
            while True:
                successors = sorted(graph[node] & members)
                if not successors:
                    break
                node = successors[0]
                if node in seen:
                    tail = path[path.index(node):] + [node]
                    cycles.append(
                        [edges[(a, b)] for a, b in zip(tail, tail[1:])]
                    )
                    break
                path.append(node)
                seen.add(node)
        return cycles

    # -- verdicts -------------------------------------------------------------
    def violations(self) -> list[str]:
        with self._meta:
            return list(self._violations)

    def note_violation(self, message: str) -> None:
        with self._meta:
            self._violations.append(message)

    def check(self) -> None:
        """Raise :class:`LockOrderError` on any cycle or recorded
        violation; silent when the graph is a DAG and discipline held."""
        problems: list[str] = []
        for cycle in self.find_cycles():
            names = " -> ".join(w.holder for w in cycle) + f" -> {cycle[0].holder}"
            block = "\n    ".join(w.render() for w in cycle)
            problems.append(f"lock-order cycle: {names}\n    {block}")
        problems.extend(self.violations())
        if problems:
            raise LockOrderError(
                "lock verifier found "
                f"{len(problems)} problem(s):\n" + "\n".join(problems)
            )

    def report(self) -> dict[str, Any]:
        """The graph and held-time stats as a JSON-friendly dict."""
        with self._meta:
            held = {
                name: {
                    "acquisitions": s.count,
                    "total_held_s": round(s.total, 6),
                    "max_held_s": round(s.max, 6),
                }
                for name, s in sorted(self._held_stats.items())
            }
        return {
            "edges": [w.to_dict() for _, w in sorted(self.edges().items())],
            "cycles": [
                [w.to_dict() for w in cycle] for cycle in self.find_cycles()
            ],
            "violations": self.violations(),
            "held": held,
        }


class InstrumentedLock:
    """A ``threading.Lock``/``RLock`` stand-in that reports acquisitions
    to a :class:`LockVerifier`.

    Supports the full ``Condition``-backing protocol
    (``_release_save`` / ``_acquire_restore`` / ``_is_owned``), so
    ``threading.Condition(instrumented_lock)`` behaves correctly: a wait
    detaches the hold from the verifier's per-thread stack and a wakeup
    reattaches it without inventing new order edges.
    """

    __slots__ = ("name", "_inner", "_verifier", "_reentrant")

    def __init__(self, name: str, verifier: LockVerifier, *, reentrant: bool = True) -> None:
        self.name = name
        self._reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._verifier = verifier

    # -- the lock protocol ---------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._verifier.note_acquired(self.name, id(self))
        return got

    def release(self) -> None:
        self._verifier.note_released(self.name, id(self))
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        # RLock has no .locked() before 3.12; fall back to a probe.
        probe = getattr(self._inner, "locked", None)
        if probe is not None:
            return probe()
        if self._inner.acquire(blocking=False):  # conclint: waive CC202 -- probe, released immediately
            self._inner.release()
            return False
        return True

    # -- Condition backing ---------------------------------------------------
    def _release_save(self):
        held = self._verifier.detach_for_wait(id(self))
        saver = getattr(self._inner, "_release_save", None)
        state = saver() if saver is not None else self._inner.release()
        return (state, held)

    def _acquire_restore(self, saved) -> None:
        state, held = saved
        restorer = getattr(self._inner, "_acquire_restore", None)
        if restorer is not None:
            restorer(state)
        else:
            self._inner.acquire()
        self._verifier.reattach_after_wait(held)

    def _is_owned(self) -> bool:
        owned = getattr(self._inner, "_is_owned", None)
        if owned is not None:
            return owned()
        return self._verifier.holds(id(self))

    # -- discipline checks ---------------------------------------------------
    def assert_held_by_me(self, context: str = "") -> None:
        """Raise unless the calling thread currently holds this lock."""
        if not self._verifier.holds(id(self)):
            message = (
                f"guarded-by violation: {self.name} not held by thread "
                f"{threading.current_thread().name}"
                + (f" ({context})" if context else "")
                + f" at {_call_site()}"
            )
            self._verifier.note_violation(message)
            raise LockOrderError(message)

    def __repr__(self) -> str:
        return f"<InstrumentedLock {self.name}>"


# -- the installed-verifier global -------------------------------------------
#
# Installed by ``Cluster(verify_locking=True)`` before it constructs any
# lock-holding component, so locks created deep inside Job/MessageQueue
# constructors come out instrumented.  Refcounted: nested clusters in one
# process share one graph (which is what you want — cross-cluster edges
# are real edges).

_installed: Optional[LockVerifier] = None
_install_count = 0
_install_lock = threading.Lock()


def install_verifier(verifier: Optional[LockVerifier] = None) -> LockVerifier:
    """Install (or join) the process-wide verifier; returns the active one."""
    global _installed, _install_count
    with _install_lock:
        if _installed is None:
            _installed = verifier or LockVerifier()
        _install_count += 1
        return _installed


def uninstall_verifier() -> None:
    """Release one installation; the graph is dropped at refcount zero.
    Locks already created stay instrumented and keep reporting into the
    (now detached) verifier they were built with — harmless."""
    global _installed, _install_count
    with _install_lock:
        if _install_count > 0:
            _install_count -= 1
        if _install_count == 0:
            _installed = None


def current_verifier() -> Optional[LockVerifier]:
    return _installed


# -- factories ----------------------------------------------------------------


def make_lock(name: str, *, reentrant: bool = True):
    """The runtime's lock constructor.  Plain ``threading.RLock``/
    ``Lock`` when no verifier is installed (zero verification cost);
    an :class:`InstrumentedLock` named *name* (``"Class._lock"``) when
    one is."""
    verifier = _installed
    if verifier is None:
        return threading.RLock() if reentrant else threading.Lock()
    return InstrumentedLock(name, verifier, reentrant=reentrant)


def make_condition(name: str, lock=None):
    """A condition over a :func:`make_lock` lock (shares the verifier
    behaviour of its backing lock)."""
    if lock is None:
        lock = make_lock(name, reentrant=True)
    return threading.Condition(lock)
