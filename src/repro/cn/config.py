"""ClusterConfig: the one declaration of what a cluster is configured with.

"One could install CN servers on all the machines of a subnet" (paper
section 3): a deployment is one statement of shape and policy applied to
N identical servants.  Every option's name, default and range is stated
here and nowhere else; ``Cluster(nodes, **options)`` builds one of these
first, and ``CNServer`` / ``TaskManager`` / ``JobManager`` read it.
Constructing it validates it and does nothing else -- no verifier
installed, no transport built, no thread, no file -- so a refused
configuration leaves the process as it found it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chaos import ChaosPolicy, VirtualClock
from .errors import ConfigError
from .queues import QUEUE_POLICIES
from .registry import TaskRegistry
from .telemetry import Telemetry
from .transport import InProcTransport, ProcTransport

__all__ = ["ClusterConfig", "SCHEDULERS", "TRANSPORTS"]

#: ``scheduler=``: how ``create_tasks`` cuts a call into placement rounds
SCHEDULERS = ("solicit", "bid")

#: ``transport=``: the execution backends, by the name that selects them
TRANSPORTS = {"inproc": InProcTransport, "proc": ProcTransport}

#: the integer options and the least value each may take
_AT_LEAST = {
    "nodes": 1,
    "memory_per_node": 1,
    "slots_per_node": 1,
    "queue_maxsize": 0,
}


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and policy of one cluster; every node is configured alike."""

    #: CNServers on the subnet, named ``node0`` ... ``node<N-1>``
    nodes: int = 4
    #: the shared task registry; None (the default) means a fresh one
    registry: Optional[TaskRegistry] = None
    #: each TaskManager's memory, in the unit of the descriptor's <memory>
    memory_per_node: int = 8000
    #: each TaskManager's execution slots (held only while a task runs)
    slots_per_node: int = 64
    #: seeded fault injection at the bus, the queues and the TaskManagers
    chaos: Optional[ChaosPolicy] = None
    #: the clock ``tick`` advances; None (the default) means a fresh one
    #: nobody else drives
    clock: Optional[VirtualClock] = None
    #: write-ahead job journal replicated on the bus, manager failover
    durable: bool = True
    #: directory of per-node journal files (needs ``durable``); None keeps
    #: the journal in memory
    journal_dir: Optional[str] = None
    #: the observability hub; an explicit None strips instrumentation
    telemetry: Optional[Telemetry] = field(default_factory=Telemetry)
    #: install the runtime lock-order verifier for the cluster's lifetime
    verify_locking: bool = False
    #: bound on every hosted task queue (0 = unbounded)
    queue_maxsize: int = 0
    #: what a full queue does with a put: one of ``QUEUE_POLICIES``
    queue_policy: str = "block"
    #: seal outbound frames with a CRC digest and verify it at dequeue
    checksums: bool = False
    #: where a task attempt runs: one of ``TRANSPORTS``
    transport: str = "inproc"
    #: one placement round per task ("solicit", the paper's multicast)
    #: or per homogeneous batch ("bid"): one of ``SCHEDULERS``
    scheduler: str = "solicit"

    def __post_init__(self) -> None:
        # every value or combination the runtime cannot honor is refused
        # here, before a single component is built
        for name, least in _AT_LEAST.items():
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be >= {least}, an int; got {value!r}")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(
                f"unknown scheduler {self.scheduler!r}; expected one of {SCHEDULERS}"
            )
        if self.queue_policy not in QUEUE_POLICIES:
            raise ConfigError(
                f"unknown queue policy {self.queue_policy!r}; "
                f"expected one of {QUEUE_POLICIES}"
            )
        if self.journal_dir is not None and not self.durable:
            raise ConfigError(
                f"journal_dir={self.journal_dir!r} with durable=False: "
                "a cluster that keeps no journal has nothing to write there"
            )
        incompatible = []
        if self.chaos is not None:
            incompatible.append("chaos fault injection (ChaosPolicy)")
        if self.clock is not None:
            incompatible.append("a caller-driven VirtualClock")
        if self.verify_locking:
            incompatible.append("the runtime lock verifier (verify_locking)")
        if self.transport != "inproc" and incompatible:
            raise ConfigError(
                f"transport={self.transport!r} cannot honor in-process-only "
                f"features: {', '.join(incompatible)}. Only the default "
                "inproc transport executes tasks in this process, as "
                "fault injection, virtual time, and lock verification need."
            )
        if self.transport not in TRANSPORTS:
            raise ConfigError(
                f"unknown transport {self.transport!r}; "
                f"known backends: {', '.join(sorted(TRANSPORTS))}"
            )
        # "a fresh one", once the refusals have seen what the caller passed
        if self.registry is None:
            object.__setattr__(self, "registry", TaskRegistry())
        if self.clock is None:
            object.__setattr__(self, "clock", VirtualClock())
