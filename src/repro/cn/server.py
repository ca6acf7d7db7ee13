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

from typing import TYPE_CHECKING, Any, Optional

from .durability import ReplicatedJournal
from .jobmanager import JobManager
from .multicast import MulticastBus, Solicitation
from .taskmanager import TaskManager
from .transport.inproc import InProcTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import ClusterConfig

__all__ = ["CNServer"]


class CNServer:
    """One cluster node hosting a JobManager + TaskManager pair."""

    def __init__(
        self,
        name: str,
        bus: MulticastBus,
        config: "ClusterConfig",
        *,
        transport: InProcTransport,
    ) -> None:
        self.name = name
        self.bus = bus
        #: whether this node answers jobmanager solicitations / placement
        #: rounds; a manager-only node sets ``accept_tasks = False``
        self.accept_jobs = True
        self.accept_tasks = True
        self.taskmanager = TaskManager(f"{name}/tm", config)
        #: this node's execution backend; the TaskManager runs every
        #: attempt through the executor the transport hands it
        self.transport = transport
        self.taskmanager.executor = transport.executor_for(self.taskmanager)
        self.jobmanager = JobManager(
            f"{name}/jm", bus, config, local_taskmanager=self.taskmanager
        )
        self._subscribed = False
        #: this node's replica of the write-ahead job journal; None until
        #: the Cluster attaches one (which a non-``durable`` one never does)
        self.journal: Optional[ReplicatedJournal] = None
        #: the cluster Telemetry hub, or None (no instrumentation)
        self.telemetry = config.telemetry

    # -- durability ------------------------------------------------------------
    def attach_durability(self, journal: ReplicatedJournal) -> None:
        """Wire the write-ahead journal into this node's JobManager;
        journal replicas arriving on the bus are folded into the local
        backend by :meth:`_on_event`."""
        self.journal = journal
        self.jobmanager.journal = journal
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
