"""Deterministic fault injection for the CN runtime.

The paper targets commodity Ethernet clusters where "the appealing
aspects of cluster computing" come with routine node and task failures;
the runtime's recovery paths are only trustworthy if failures can be
*provoked on demand*.  This module provides that chaos layer:

* :class:`VirtualClock` -- an injected logical clock.  Heartbeats,
  failure detection and deadlines are all measured in virtual seconds
  advanced by :meth:`Cluster.tick`, so tests never depend on wall time.
* :class:`ChaosPolicy` -- a seeded fault injector.  Faults come in two
  flavours: **scripted** one-shots (crash *this* task on *this* attempt,
  crash *this* node after its Nth task start or at tick T, stall a task)
  and **rate-based** faults whose decisions are derived from
  ``hash(seed, site, stable-key)`` rather than from a shared RNG stream,
  so the injected fault set is identical across reruns regardless of
  thread interleaving.  Every injected fault is appended to a structured
  log (:class:`FaultRecord`).
* :class:`ExponentialBackoff` -- the retry pacing policy (exponential
  with deterministic, seed-derived jitter) used by the JobManager
  between retry attempts.

Fault sites instrumented elsewhere in the package:

============  =====================================  ==================
site          hook                                   injected by
============  =====================================  ==================
task start    ``should_crash_task`` / ``should_stall``  TaskManager
node          ``node_crash_due`` / ``nodes_to_crash``   TaskManager / Cluster.tick
task queue    ``queue_fate`` (drop / delay /            MessageQueue.put
              duplicate / reorder / corrupt)
multicast     ``bus_drop``                              MulticastBus
partition     ``note_partition`` / ``note_heal`` /      Cluster.partition /
              ``note_revive`` (recording only)          heal_partition / revive_node
============  =====================================  ==================

A :class:`ChaosPolicy` with no rates and no scripted faults reports
``enabled == False`` and every instrumented fast path short-circuits on
that flag, keeping the no-fault overhead negligible (measured by
``benchmarks/test_perf_chaos.py``).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..analysis.conc.runtime import make_lock

__all__ = [
    "VirtualClock",
    "FaultRecord",
    "InjectedFault",
    "ChaosPolicy",
    "ExponentialBackoff",
]


class InjectedFault(RuntimeError):
    """Raised inside a task to simulate a crash; deliberately *not* a
    :class:`~repro.cn.errors.CnError` so it travels the same
    failure/retry path as any user exception."""


class VirtualClock:
    """A monotonic logical clock advanced explicitly (never by wall time).

    ``drive_timeouts=True`` opts client-side timeout arithmetic (e.g.
    ``CNAPI.wait``) into virtual time as well: deadlines are computed
    from :meth:`timeout_now` instead of ``time.monotonic()``, so a
    chaos test that advances the clock by ticking controls *every*
    deadline in the system -- no hidden wall-time dependence.  The
    default keeps wall-clock timeouts, matching non-ticked clusters
    where virtual time never advances and a virtual deadline would
    otherwise never expire.
    """

    def __init__(self, start: float = 0.0, *, drive_timeouts: bool = False) -> None:
        self._now = float(start)
        self._drive_timeouts = bool(drive_timeouts)
        self._lock = make_lock("VirtualClock._lock", reentrant=False)

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, dt: float = 1.0) -> float:
        if dt < 0:
            raise ValueError("the clock only moves forward")
        with self._lock:
            self._now += dt
            return self._now

    @property
    def drives_timeouts(self) -> bool:
        """Whether client timeout arithmetic runs on virtual time."""
        return self._drive_timeouts

    def timeout_now(self) -> float:
        """The time source for timeout/deadline arithmetic: virtual time
        when this clock drives timeouts, wall-monotonic otherwise."""
        if self._drive_timeouts:
            return self.now()
        return time.monotonic()


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: what kind, where, and against which target."""

    seq: int
    # task-crash | stall | node-crash | node-revive | queue-drop |
    # queue-delay | queue-duplicate | queue-reorder | queue-corrupt |
    # bus-drop | burst | partition | partition-heal
    kind: str
    site: str  # task | node | queue:<owner> | bus | portal
    target: str
    detail: dict = field(default_factory=dict)

    def key(self) -> tuple[str, str, str]:
        """Thread-schedule-independent identity used to compare runs."""
        return (self.kind, self.site, self.target)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "site": self.site,
            "target": self.target,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class ExponentialBackoff:
    """Exponential retry backoff with deterministic, seed-derived jitter.

    ``delay(attempt)`` for attempt 1, 2, 3... is ``base * factor**(a-1)``
    capped at ``cap``, multiplied by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from an RNG seeded by
    ``(seed, key, attempt)`` -- the same attempt of the same task always
    waits the same amount, but distinct tasks desynchronize (no retry
    thundering herd) and reruns are reproducible.
    """

    base: float = 0.005
    factor: float = 2.0
    cap: float = 0.25
    jitter: float = 0.1
    seed: int = 0

    def delay(self, attempt: int, key: str = "") -> float:
        raw = min(self.cap, self.base * self.factor ** max(0, attempt - 1))
        if self.jitter and raw > 0:
            u = random.Random(f"{self.seed}:{key}:{attempt}").random()
            raw *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return max(0.0, raw)

    def schedule(self, attempts: int, key: str = "") -> list[float]:
        """The delays the first *attempts* retries would wait."""
        return [self.delay(a, key) for a in range(1, attempts + 1)]


class ChaosPolicy:
    """Seeded, deterministic fault injection across the CN fault sites.

    Rate-based decisions are *keyed*: each decision derives its own RNG
    from ``(seed, kind, stable key)`` -- e.g. ``(queue owner, delivery
    index)`` or ``(task, attempt)`` -- so the set of injected faults does
    not depend on thread scheduling.  Scripted faults fire exactly once
    for their target.  All hooks are cheap no-ops while ``enabled`` is
    false, which is the case for a policy with zero rates and no scripts.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        task_crash_rate: float = 0.0,
        node_crash_rate: float = 0.0,
        queue_drop_rate: float = 0.0,
        queue_delay_rate: float = 0.0,
        bus_drop_rate: float = 0.0,
        queue_duplicate_rate: float = 0.0,
        queue_reorder_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        reorder_hold: int = 2,
    ) -> None:
        if reorder_hold < 1:
            raise ValueError(f"reorder_hold must be >= 1, got {reorder_hold}")
        self.seed = seed
        self.task_crash_rate = task_crash_rate
        self.node_crash_rate = node_crash_rate
        self.queue_drop_rate = queue_drop_rate
        self.queue_delay_rate = queue_delay_rate
        self.bus_drop_rate = bus_drop_rate
        # transport-robustness fault modes (at-least-once duplication,
        # bounded reordering, payload corruption) -- the link behaviours
        # a real-socket transport would exhibit; see MessageQueue
        self.queue_duplicate_rate = queue_duplicate_rate
        self.queue_reorder_rate = queue_reorder_rate
        self.corrupt_rate = corrupt_rate
        self.reorder_hold = reorder_hold
        self.log: list[FaultRecord] = []
        self._log_lock = make_lock("ChaosPolicy._log_lock", reentrant=False)
        self._seq = itertools.count(1)
        # scripted one-shots, consumed on first match
        self._task_crashes: set[tuple[str, int]] = set()
        self._task_stalls: set[tuple[str, int]] = set()
        self._node_crashes_after_starts: dict[str, int] = {}
        self._node_crashes_at_tick: dict[str, int] = {}
        # overload mode: slow-consumer queues (owner substring -> stride)
        # and scripted submission-burst schedules (tick -> burst size)
        self._slow_consumers: dict[str, int] = {}
        self._bursts: dict[int, int] = {}
        # scripted corruption: owner substring -> first delivery index to
        # corrupt (fires once per entry, consumed on match)
        self._corruptions: dict[str, int] = {}
        # per-owner queue incarnation counts (see register_queue): a
        # re-placed task's fresh queue must not replay the exact fate
        # stream its predecessor saw, or a fated index becomes a
        # deterministic livelock that no retry can ever escape
        self._queue_gens: dict[str, int] = {}
        self._script_lock = make_lock("ChaosPolicy._script_lock", reentrant=False)
        # armed = some fault could ever fire.  Rates are fixed at
        # construction and scripted faults only arrive through the
        # scripting methods below, so this is a cheap cached flag the
        # per-message fault sites can poll instead of re-scanning every
        # rate and script table.  Arming is one-way: a drained script
        # leaves the policy armed (costs a check, never correctness).
        self._armed = bool(
            task_crash_rate
            or node_crash_rate
            or queue_drop_rate
            or queue_delay_rate
            or bus_drop_rate
            or queue_duplicate_rate
            or queue_reorder_rate
            or corrupt_rate
        )

    # -- scripting -----------------------------------------------------------
    def crash_task(self, name: str, attempt: int = 1) -> "ChaosPolicy":
        """Crash task *name* when it starts the given *attempt* (1-based)."""
        with self._script_lock:
            self._task_crashes.add((name, attempt))
        self._armed = True
        return self

    def stall_task(self, name: str, attempt: int = 1) -> "ChaosPolicy":
        """Hang task *name* on the given attempt until it is cancelled
        (by the deadline watchdog, a node crash, or job cancellation)."""
        with self._script_lock:
            self._task_stalls.add((name, attempt))
        self._armed = True
        return self

    def crash_node(
        self,
        node: str,
        *,
        after_starts: Optional[int] = None,
        at_tick: Optional[int] = None,
    ) -> "ChaosPolicy":
        """Crash *node* after it has started its Nth task, or at tick T."""
        if (after_starts is None) == (at_tick is None):
            raise ValueError("specify exactly one of after_starts / at_tick")
        node = node.split("/")[0]
        with self._script_lock:
            if after_starts is not None:
                self._node_crashes_after_starts[node] = after_starts
            else:
                self._node_crashes_at_tick[node] = at_tick  # type: ignore[assignment]
        self._armed = True
        return self

    def slow_consumer(self, owner_substring: str, *, stride: int = 2) -> "ChaosPolicy":
        """Overload mode: make queues whose owner contains
        *owner_substring* behave like a slow consumer -- every
        *stride*-th delivery is held back (the ``delay`` fate) so depth
        builds up deterministically and backpressure engages.  Not a
        one-shot: the brake stays on for the whole run."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        with self._script_lock:
            self._slow_consumers[owner_substring] = stride
        self._armed = True
        return self

    def corrupt_message(self, owner_substring: str, index: int = 1) -> "ChaosPolicy":
        """Corrupt the payload of one frame: the first delivery with
        per-queue index >= *index* put on a queue whose owner contains
        *owner_substring*.  One-shot, consumed on match -- the scripted
        equivalent of a single bit-flip on the link."""
        if index < 1:
            raise ValueError(f"index must be >= 1, got {index}")
        with self._script_lock:
            self._corruptions[owner_substring] = index
        self._armed = True
        return self

    def schedule_burst(self, tick: int, submissions: int) -> "ChaosPolicy":
        """Overload mode: script a submission storm of *submissions* jobs
        due at *tick*.  The storm driver (a benchmark or a portal test)
        polls :meth:`bursts_due` each tick and fires the scripted load --
        the schedule living here keeps storm timing seeded/deterministic
        alongside every other fault."""
        if submissions < 1:
            raise ValueError(f"submissions must be >= 1, got {submissions}")
        with self._script_lock:
            self._bursts[tick] = self._bursts.get(tick, 0) + submissions
        self._armed = True
        return self

    def register_queue(self, owner: str) -> str:
        """Fate namespace for a new queue incarnation of *owner*.

        The first incarnation keeps the bare owner as its namespace --
        fate streams are unchanged for every queue that is never
        re-placed, and a twin-seeded policy predicting fates via
        :meth:`queue_fate` without registering stays in sync.  Each
        later incarnation (a re-placement after a crash or watchdog
        retry) is suffixed with its generation, giving the attempt's
        replayed deliveries an independent fate roll: a retransmit on a
        real link re-rolls its luck, and so must ours, or the same
        delivery is dropped/held on every attempt forever.
        """
        with self._script_lock:
            generation = self._queue_gens.setdefault(owner, 0)
            self._queue_gens[owner] = generation + 1
        return owner if generation == 0 else f"{owner}~{generation}"

    def bursts_due(self, tick: int) -> int:
        """Scripted submission-storm size due at *tick* (consumed)."""
        with self._script_lock:
            due = [t for t in self._bursts if tick >= t]
            total = sum(self._bursts.pop(t) for t in due)
        if total:
            self._record("burst", "portal", str(tick), submissions=total)
        return total

    # -- the enabled fast path -------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any fault could ever fire; instrumented sites
        short-circuit on this to keep the disabled overhead near zero
        (one cached attribute read, not a rate/script-table scan)."""
        return self._armed

    # -- decision hooks (called from instrumented components) ---------------------
    def should_crash_task(self, job_id: str, task: str, attempt: int) -> bool:
        with self._script_lock:
            scripted = (task, attempt) in self._task_crashes
            if scripted:
                self._task_crashes.discard((task, attempt))
        if scripted:
            self._record("task-crash", "task", task, attempt=attempt, scripted=True)
            return True
        if self._decide("task-crash", f"{task}:{attempt}", self.task_crash_rate):
            self._record("task-crash", "task", task, attempt=attempt, job=job_id)
            return True
        return False

    def should_stall(self, job_id: str, task: str, attempt: int) -> bool:
        with self._script_lock:
            scripted = (task, attempt) in self._task_stalls
            if scripted:
                self._task_stalls.discard((task, attempt))
        if scripted:
            self._record("stall", "task", task, attempt=attempt, scripted=True)
        return scripted

    def node_crash_due(self, node: str, starts: int) -> bool:
        """Checked by a TaskManager each time it starts a task."""
        node = node.split("/")[0]
        with self._script_lock:
            threshold = self._node_crashes_after_starts.get(node)
            scripted = threshold is not None and starts >= threshold
            if scripted:
                del self._node_crashes_after_starts[node]
        if scripted:
            self._record("node-crash", "node", node, after_starts=starts, scripted=True)
            return True
        if self._decide("node-crash", f"{node}:{starts}", self.node_crash_rate):
            self._record("node-crash", "node", node, after_starts=starts)
            return True
        return False

    def nodes_to_crash(self, tick: int) -> list[str]:
        """Scripted at-tick node crashes due at *tick* (consumed)."""
        with self._script_lock:
            due = sorted(
                node
                for node, when in self._node_crashes_at_tick.items()
                if tick >= when
            )
            for node in due:
                del self._node_crashes_at_tick[node]
        for node in due:
            self._record("node-crash", "node", node, at_tick=tick, scripted=True)
        return due

    def queue_fate(self, owner: str, index: int) -> str:
        """``deliver`` | ``drop`` | ``delay`` | ``duplicate`` |
        ``reorder`` | ``corrupt`` for the *index*-th message put on the
        queue *owner* (per-queue counter = stable key)."""
        with self._script_lock:
            corrupt_hit = None
            for sub, at in self._corruptions.items():
                if sub in owner and index >= at:
                    corrupt_hit = sub
                    break
            if corrupt_hit is not None:
                del self._corruptions[corrupt_hit]
            slow = [
                (sub, stride)
                for sub, stride in self._slow_consumers.items()
                if sub in owner
            ]
        if corrupt_hit is not None:
            self._record(
                "queue-corrupt", f"queue:{owner}", owner,
                index=index, scripted=True,
            )
            return "corrupt"
        for sub, stride in slow:
            if index % stride == 0:
                self._record(
                    "queue-delay", f"queue:{owner}", owner,
                    index=index, slow_consumer=sub,
                )
                return "delay"
        key = f"{owner}:{index}"
        if self._decide("queue-drop", key, self.queue_drop_rate):
            self._record("queue-drop", f"queue:{owner}", owner, index=index)
            return "drop"
        if self._decide("queue-delay", key, self.queue_delay_rate):
            self._record("queue-delay", f"queue:{owner}", owner, index=index)
            return "delay"
        if self._decide("queue-duplicate", key, self.queue_duplicate_rate):
            self._record("queue-duplicate", f"queue:{owner}", owner, index=index)
            return "duplicate"
        if self._decide("queue-reorder", key, self.queue_reorder_rate):
            self._record(
                "queue-reorder", f"queue:{owner}", owner,
                index=index, hold=self.reorder_hold,
            )
            return "reorder"
        if self._decide("queue-corrupt", key, self.corrupt_rate):
            self._record("queue-corrupt", f"queue:{owner}", owner, index=index)
            return "corrupt"
        return "deliver"

    def bus_drop(self, sender: str, subscriber: str, index: int) -> bool:
        """Whether to drop the *index*-th bus delivery to *subscriber*."""
        if self._decide("bus-drop", f"{sender}:{subscriber}:{index}", self.bus_drop_rate):
            self._record("bus-drop", "bus", subscriber, sender=sender, index=index)
            return True
        return False

    # -- structural fault recording (injected by the Cluster) -----------------
    #
    # Partitions, heals and revives are not chaos *decisions* -- the test
    # or simulation driver imposes them -- but they are faults, and a
    # trace that omits them cannot explain the run.  The Cluster calls
    # these so the structured log and the topology agree on what
    # happened and when.
    def note_partition(self, groups: Any) -> None:
        """Record a network partition imposed via ``Cluster.partition``."""
        normal = sorted(sorted(str(n) for n in group) for group in groups)
        target = " | ".join(",".join(group) for group in normal)
        self._record("partition", "bus", target, groups=normal)

    def note_heal(self) -> None:
        """Record a partition heal (full reachability restored)."""
        self._record("partition-heal", "bus", "*")

    def note_revive(self, node: str) -> None:
        """Record a node revival via ``Cluster.revive_node``."""
        self._record("node-revive", "node", node.split("/")[0])

    # -- the log ---------------------------------------------------------------
    def fault_summary(self) -> list[tuple[str, str, str]]:
        """Sorted ``(kind, site, target)`` triples -- the identity of the
        injected fault set, independent of thread scheduling."""
        with self._log_lock:
            return sorted(record.key() for record in self.log)

    def log_dicts(self) -> list[dict[str, Any]]:
        with self._log_lock:
            return [record.to_dict() for record in self.log]

    def clear_log(self) -> None:
        with self._log_lock:
            self.log.clear()

    # -- internals --------------------------------------------------------------
    def _decide(self, kind: str, key: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return random.Random(f"{self.seed}:{kind}:{key}").random() < rate

    def _record(self, kind: str, site: str, target: str, **detail: Any) -> None:
        record = FaultRecord(next(self._seq), kind, site, target, detail)
        with self._log_lock:
            self.log.append(record)

    def __repr__(self) -> str:
        return f"<ChaosPolicy seed={self.seed} faults={len(self.log)}>"
