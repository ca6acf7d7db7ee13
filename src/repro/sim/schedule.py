"""Fault schedules: the generated input of one simulation run.

A :class:`Schedule` is the complete, serializable description of one
:class:`~repro.sim.harness.Simulation`: its cluster (``ClusterConfig``
options, the lock verifier, how the worker fan is placed), fault rates (fed
into :class:`~repro.cn.chaos.ChaosPolicy`), and a sorted sequence of
structural :class:`FaultEvent` entries (node kills and revives,
partitions and heals, task stalls, load bursts) pinned to virtual-clock
ticks.

:func:`generate` derives a schedule deterministically from a seed.  The
generator is deliberately *convergence-biased*: every kill is paired
with a revive, every partition with a heal, at most one kill and one
partition are outstanding at a time, the manager-side partition group
always keeps a task-accepting node, and :func:`converging` takes out
what the drawn cluster cannot recover from -- so the recovery machinery
(watchdog retries, journal replay, manager adoption) can always drive
the job to completion and a timeout is a genuine bug, not an
over-aggressive schedule.  Schedules round-trip through plain dicts
(:meth:`Schedule.to_dict` / :meth:`Schedule.from_dict`) so failing runs
can be checked in as JSON reproducers.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Optional, Union

from repro.cn import ClusterConfig
from repro.cn.config import SCHEDULERS

__all__ = ["EVENT_KINDS", "FAN_CALLS", "MANAGER", "FaultEvent", "Schedule", "generate"]

#: every structural event kind a schedule may contain
EVENT_KINDS = ("kill", "revive", "partition", "heal", "stall", "burst")

#: how the worker fan is placed: one ``create_task`` per worker, or one
#: ``create_tasks`` call (the only way ``scheduler`` cuts a round of more)
FAN_CALLS = ("create_task", "create_tasks")

#: the node that manages the job and hosts none of its tasks
MANAGER = "node0"

_OPTIONS = {f.name for f in fields(ClusterConfig)}


@dataclass(frozen=True)
class FaultEvent:
    """One structural fault pinned to a virtual-clock tick.

    ``target`` names a node (kill/revive), a task (stall), or carries a
    ``,``-joined node group for partitions (the complement group is
    implied).  ``arg`` is kind-specific: the stall attempt, or the burst
    size in status-query submissions.
    """

    at_tick: int
    kind: str
    target: str = ""
    arg: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; expected {EVENT_KINDS}")
        if self.at_tick < 0:
            raise ValueError(f"at_tick must be >= 0, got {self.at_tick}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultEvent":
        return cls(**data)


@dataclass(frozen=True)
class Schedule:
    """One simulation run: seed, cluster, fault rates and fault events."""

    seed: int
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    # the cluster: ClusterConfig's options under their names and defaults
    scheduler: str = ClusterConfig.scheduler
    #: a journal directory is relative to a fresh temporary directory of
    #: each run
    durable: Union[bool, str] = ClusterConfig.durable
    #: the harness builds the cluster inside ``verified_locks()``
    verify_locking: bool = False
    fan_call: str = FAN_CALLS[0]
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    #: field names: the rates, the ClusterConfig options, and what the
    #: cluster is drawn as (the options, the verifier and ``fan_call``)
    RATE_FIELDS = tuple(name for name in __annotations__ if name.endswith("_rate"))
    CONFIG_FIELDS = tuple(name for name in __annotations__ if name in _OPTIONS)
    DIMENSIONS = CONFIG_FIELDS + ("verify_locking", "fan_call")

    def cluster_options(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.CONFIG_FIELDS}

    def drawn(self) -> dict[str, Any]:
        """The dimensions that differ from their defaults."""
        dims = {name: getattr(self, name) for name in self.DIMENSIONS}
        return {name: v for name, v in dims.items() if v != _DEFAULTS[name]}

    def has_faults(self) -> bool:
        """Whether anything could go wrong under this schedule (decides
        if the harness arms watchdog deadlines and retry budgets)."""
        return bool(
            self.events
            or any(getattr(self, name) > 0.0 for name in self.RATE_FIELDS)
        )

    def with_events(self, events: tuple[FaultEvent, ...]) -> "Schedule":
        return replace(self, events=tuple(events))

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "config": {name: getattr(self, name) for name in self.DIMENSIONS},
            "rates": {name: getattr(self, name) for name in self.RATE_FIELDS},
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Schedule":
        return cls(
            seed=data["seed"],
            events=tuple(FaultEvent.from_dict(event) for event in data["events"]),
            **data["rates"],
            **data["config"],
        )

    def describe(self) -> str:
        """One line for progress output: active rates, event summary and
        the cluster's non-default dimensions."""
        rates = ",".join(
            f"{name.removesuffix('_rate')}={getattr(self, name):.3f}"
            for name in self.RATE_FIELDS
            if getattr(self, name) > 0.0
        )
        events = ",".join(
            f"{event.kind}@{event.at_tick}"
            + (f":{event.target}" if event.target else "")
            for event in self.events
        )
        faults = "; ".join(part for part in (rates, events) if part)
        rest = ",".join(f"{k}={v}" for k, v in self.drawn().items())
        return " | ".join(filter(None, (faults or "fault-free", rest)))


#: every field's default (the cluster's are ClusterConfig's)
_DEFAULTS = {f.name: f.default for f in fields(Schedule)}


def converging(schedule: Schedule) -> Schedule:
    """*schedule* without what its cluster cannot recover from: a manager
    kill without a journal to adopt from, and a worker outage stranding
    the manager's side of a partition (until a tick past the heal, when
    heartbeats have crossed again).  An outage goes with its revive.
    Generator and shrinker both use it."""
    events = schedule.events
    tick = {e.kind: e.at_tick for e in events if e.kind in ("partition", "heal")}
    cut = [e.target.split(",") for e in events if e.kind == "partition"]
    side = set(cut[0]) - {MANAGER} if cut and "heal" in tick else set()
    dropped: set[Optional[FaultEvent]] = set()
    for kill in (e for e in events if e.kind == "kill"):
        pair = ("revive", kill.target)
        after = events[events.index(kill) :]
        revive = next((e for e in after if (e.kind, e.target) == pair), None)
        if (kill.target == MANAGER and not schedule.durable) or (
            side == {kill.target}
            and tick["partition"] <= (revive.at_tick if revive else float("inf"))
            and kill.at_tick <= tick["heal"] + 2
        ):
            dropped |= {kill, revive}
    return schedule.with_events(
        tuple(event for event in events if event not in dropped)
    )


def generate(
    seed: int,
    *,
    nodes: int = 4,
    workers: int = 3,
    horizon: int = 60,
) -> Schedule:
    """Derive a fault schedule deterministically from *seed*.

    Structural events land in the first *horizon* ticks (the job itself
    typically needs far fewer); rates are kept low enough that the
    retry/replay machinery converges, which is what makes a timeout
    under a generated schedule a finding rather than noise.
    """
    rng = random.Random(f"cn-sim-schedule:{seed}")
    rates: dict[str, float] = {}
    # magnitudes are deliberately small: a lost or held-back message
    # wedges its consumer until the deadline watchdog retries the task,
    # and the attempt replay re-rolls a fate for every ledgered message
    # -- at high rates every replay re-wedges and the job burns its
    # whole retry budget unwedging instead of computing
    if rng.random() < 0.45:
        rates["drop_rate"] = round(rng.uniform(0.002, 0.012), 4)
    if rng.random() < 0.45:
        rates["delay_rate"] = round(rng.uniform(0.005, 0.03), 4)
    if rng.random() < 0.5:
        rates["duplicate_rate"] = round(rng.uniform(0.02, 0.10), 4)
    if rng.random() < 0.5:
        rates["reorder_rate"] = round(rng.uniform(0.01, 0.05), 4)
    # the draws of dimensions since removed (a corruption rate; a queue
    # bound and its policy) stay, discarded, so that every seed still
    # names the schedule it named before
    if rng.random() < 0.45:
        rng.uniform(0.01, 0.04)
    if rng.random() < 0.25:
        rng.randint(10, 16)
        rng.randrange(3)

    worker_nodes = [f"node{i}" for i in range(1, nodes)]
    events: list[FaultEvent] = []

    # kill/revive cycles: at most one node down at a time, always revived
    cursor = rng.randint(2, 6)
    for _ in range(rng.randint(0, 2)):
        if cursor >= horizon - 10:
            break
        # the manager node is a rarer victim: killing it exercises
        # journal-replay adoption, the workers exercise re-placement
        victim = MANAGER if rng.random() < 0.25 else rng.choice(worker_nodes)
        down = rng.randint(3, 8)
        events.append(FaultEvent(cursor, "kill", victim))
        events.append(FaultEvent(cursor + down, "revive", victim))
        cursor += down + rng.randint(3, 6)

    # one optional partition/heal cycle; the manager-side group keeps at
    # least one task-accepting node so re-placement stays possible
    if rng.random() < 0.5:
        at = rng.randint(2, horizon // 2)
        keep = rng.randint(1, len(worker_nodes) - 1)
        manager_side = [MANAGER] + rng.sample(worker_nodes, keep)
        events.append(FaultEvent(at, "partition", ",".join(sorted(manager_side))))
        events.append(FaultEvent(at + rng.randint(2, 5), "heal"))

    if rng.random() < 0.4:
        events.append(
            FaultEvent(0, "stall", f"w{rng.randrange(workers)}", arg=1)
        )
    if rng.random() < 0.3:
        events.append(
            FaultEvent(rng.randint(1, horizon // 2), "burst", arg=rng.randint(3, 8))
        )

    events.sort(key=lambda event: (event.at_tick, event.kind, event.target))

    # the cluster: each value ClusterConfig declares is drawn
    durable = rng.choice((False, True, "journal"))
    scheduler = rng.choice(SCHEDULERS)
    rng.random()  # once the per-message digest switch; discarded, as above
    schedule = converging(
        Schedule(
            seed=seed,
            scheduler=scheduler,
            durable=durable,
            verify_locking=rng.random() < 0.25,
            fan_call=rng.choice(FAN_CALLS),
            events=tuple(events),
            **rates,
        )
    )
    # what the constructor would refuse is refused here, not skipped later
    ClusterConfig(nodes, **schedule.cluster_options())
    return schedule
