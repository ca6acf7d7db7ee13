"""CNServer: the servant combining JobManager and TaskManager.

"JobManager and the TaskManager are part of the same process, CNServer,
which is a servant (since it acts as a client and a server)." (paper
section 3)

A CNServer is one simulated cluster node: it subscribes both of its
components to the multicast bus (jobmanager solicitations answered by
the JobManager, placement rules by the TaskManager's bid) and registers
itself with peer JobManagers so any manager can upload tasks to any
node.  It also relays heartbeat events from the bus into its JobManager's
failure detector, and can leave/rejoin the subnet wholesale when its
node crashes or revives.
"""

from __future__ import annotations

from typing import Any, Optional

from .chaos import ChaosPolicy, VirtualClock
from .durability import JobDirectory, ReplicatedJournal
from .jobmanager import JobManager
from .multicast import MulticastBus, Solicitation
from .registry import TaskRegistry
from .taskmanager import TaskManager
from .transport.inproc import InProcTransport

__all__ = ["CNServer"]


class CNServer:
    """One cluster node hosting a JobManager + TaskManager pair."""

    def __init__(
        self,
        name: str,
        bus: MulticastBus,
        registry: TaskRegistry,
        *,
        memory_capacity: int = 8000,
        slots: int = 64,
        max_jobs: int = 16,
        accept_jobs: bool = True,
        accept_tasks: bool = True,
        chaos: Optional[ChaosPolicy] = None,
        clock: Optional[VirtualClock] = None,
        failure_k: int = 3,
        retry_backoff=None,
        queue_maxsize: int = 0,
        queue_policy: str = "block",
        checksums: bool = False,
        transport: Optional[InProcTransport] = None,
        scheduler: str = "solicit",
    ) -> None:
        self.name = name
        self.bus = bus
        self.accept_jobs = accept_jobs
        self.accept_tasks = accept_tasks
        self.taskmanager = TaskManager(
            f"{name}/tm",
            memory_capacity=memory_capacity,
            slots=slots,
            chaos=chaos,
            clock=clock,
            queue_maxsize=queue_maxsize,
            queue_policy=queue_policy,
            checksums=checksums,
        )
        #: this node's execution backend; the TaskManager runs every
        #: attempt through the executor the transport hands it
        self.transport = transport
        if transport is not None:
            self.taskmanager.executor = transport.executor_for(self.taskmanager)
        self.jobmanager = JobManager(
            f"{name}/jm",
            bus,
            registry,
            max_jobs=max_jobs,
            local_taskmanager=self.taskmanager,
            failure_k=failure_k,
            retry_backoff=retry_backoff,
        )
        self.jobmanager.checksums = checksums
        self.jobmanager.scheduler = scheduler
        self._subscribed = False
        #: this node's replica of the write-ahead job journal (durability
        #: extension); None until the Cluster attaches one
        self.journal: Optional[ReplicatedJournal] = None
        #: the cluster Telemetry hub (observability extension); None until
        #: the Cluster wires one in via :meth:`set_telemetry`
        self.telemetry = None

    # -- telemetry -------------------------------------------------------------
    def set_telemetry(self, telemetry) -> None:
        """Hand the cluster's Telemetry hub to both components; None
        leaves every hot path uninstrumented."""
        self.telemetry = telemetry
        self.jobmanager.telemetry = telemetry
        self.taskmanager.telemetry = telemetry

    # -- durability ------------------------------------------------------------
    def attach_durability(
        self, journal: ReplicatedJournal, directory: JobDirectory
    ) -> None:
        """Wire the write-ahead journal and the cluster job directory into
        this node's JobManager; journal replicas arriving on the bus are
        folded into the local backend by :meth:`_on_event`."""
        self.journal = journal
        self.jobmanager.journal = journal
        self.jobmanager.directory = directory
        telemetry = self.telemetry
        if telemetry is not None:
            # scrape-time fold, like BusStats: the backend already keeps
            # the zombie writes it fenced and counts the checkpoints it
            # let go of, so the hot path pays nothing
            telemetry.metrics.add_collector(self._collect_journal_stats)

    def _collect_journal_stats(self) -> None:
        backend = self.journal.backend
        for name, total in (
            ("cn_journal_fenced_total", len(backend.fenced)),
            ("cn_journal_checkpoints_superseded_total", backend.superseded),
        ):
            self.telemetry.metrics.counter(name, node=self.name)._set_total(total)

    # -- bus integration ------------------------------------------------------
    def start(self) -> None:
        """Join the neighborhood: subscribe to multicast solicitations and
        heartbeat events."""
        if self._subscribed:
            return
        self.bus.subscribe(self.name, self._respond)
        self.bus.attach_listener(self.name, self._on_event)
        self._subscribed = True

    def _respond(self, solicitation: Solicitation) -> Optional[Any]:
        if solicitation.kind == "jobmanager":
            if not self.accept_jobs:
                return None
            return self.jobmanager.willing_to_manage(solicitation)
        if solicitation.kind == "rule":
            # a placement round: score the rule locally and bid
            if not self.accept_tasks:
                return None
            return self.taskmanager.compute_bid(solicitation.requirements["rule"])
        return None

    def _on_event(self, topic: str, payload: Any) -> None:
        """Bus event listener: feed heartbeats to the failure detector and
        replicated journal batches into the local journal backend."""
        if topic == "heartbeat":
            node = payload.get("node")
            if node:
                self.jobmanager.on_heartbeat(node)
        elif topic == "journal":
            journal = self.journal
            if journal is not None:
                journal.receive(payload)

    def connect_peer(self, peer: "CNServer") -> None:
        """Allow this node's JobManager to upload tasks to *peer*'s TM."""
        self.jobmanager.register_taskmanager(peer.taskmanager)

    # -- node-level failure ----------------------------------------------------
    def leave_subnet(self) -> None:
        """Drop off the bus (crash or partition isolation): no more
        solicitation responses, no more event deliveries."""
        if self._subscribed:
            self.bus.unsubscribe(self.name)
            self.bus.detach_listener(self.name)
            self._subscribed = False

    def rejoin_subnet(self) -> None:
        if not self._subscribed:
            self.bus.subscribe(self.name, self._respond)
            self.bus.attach_listener(self.name, self._on_event)
            self._subscribed = True

    def shutdown(self) -> None:
        self.leave_subnet()
        self.jobmanager.shutdown()
        self.taskmanager.shutdown()

    def __repr__(self) -> str:
        return f"<CNServer {self.name!r}>"
