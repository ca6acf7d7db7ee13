"""Cluster assembly: a neighborhood of CNServers on one multicast bus.

"One could install CN servers on all the machines of a subnet and a user
could run their client programs from any machine on the subnet." (paper
section 3)

:class:`Cluster` builds N CNServers from one :class:`ClusterConfig`,
wires every JobManager to every TaskManager (the subnet is flat), and
owns lifecycle.  It is intentionally cheap to construct so tests and
benchmarks can spin up clusters of various sizes.

Fault tolerance: the cluster owns the shared :class:`VirtualClock` and
drives the failure-detection loop.  Each :meth:`tick` advances virtual
time, publishes one heartbeat per live TaskManager on the bus (every
CNServer relays them into its failure detector), runs each live
JobManager's detection period, and expires per-task deadlines.  Tests
call :meth:`tick` explicitly for determinism; :meth:`start_heartbeats`
runs the same loop on a background thread for wall-clock runs.
:meth:`kill_node` / :meth:`revive_node` / :meth:`partition` are the
operator-style fault controls.

A tick detects failures and does nothing else.  What the metrics
registry shows of the cluster -- node gauges, heartbeat misses, wire
volume, ticks, routed messages, jobs created -- is folded in from the
state the runtime already keeps whenever the registry is read (see
:meth:`Cluster._fold_state`), so an untouched cluster exports the same
families as one that has ticked.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager
from typing import Optional, Sequence

from ..analysis.conc.runtime import (
    LockVerifier,
    install_verifier,
    make_lock,
    uninstall_verifier,
)
from .config import TRANSPORTS, ClusterConfig
from .durability import (
    JobDirectory,
    MemoryJournal,
    ReplicatedJournal,
    journal_factory_for_dir,
)
from .multicast import MulticastBus
from .server import CNServer

__all__ = ["Cluster"]

#: virtual seconds the cluster clock advances per :meth:`Cluster.tick`
TICK_PERIOD = 1.0


class Cluster(AbstractContextManager):
    """A simulated CN deployment: bus + servers + shared task registry."""

    def __init__(self, nodes: int = 4, **options) -> None:
        #: what this cluster was asked to be (see :class:`ClusterConfig`
        #: for the options); an unknown keyword or a value the runtime
        #: cannot honor is refused here, before anything below is built
        self.config = config = ClusterConfig(nodes=nodes, **options)
        # the options the portal, the simulator and CNAPI read off the
        # cluster itself
        self.scheduler = config.scheduler
        self.checksums = config.checksums
        self.durable = config.durable
        self.registry = config.registry
        self.chaos = config.chaos
        self.clock = config.clock
        self.telemetry = telemetry = config.telemetry
        #: opt-in runtime lock-order/deadlock verifier (conclint part 2).
        #: Installed *before* any component is built: locks created deep
        #: inside Job/MessageQueue constructors come out instrumented.
        self.lock_verifier: Optional[LockVerifier] = (
            install_verifier() if config.verify_locking else None
        )
        #: execution backend (see repro.cn.transport)
        self.transport = TRANSPORTS[config.transport](telemetry)
        if self.lock_verifier is not None and telemetry is not None:
            # held-time histograms land in the shared metrics registry as
            # cn_lock_held_seconds{lock=<Class._lock>}
            self.lock_verifier.attach_metrics(telemetry.metrics)
        self.bus = MulticastBus(chaos=config.chaos)
        self.bus.set_telemetry(telemetry)
        self.servers = [
            CNServer(f"node{i}", self.bus, config, transport=self.transport)
            for i in range(config.nodes)
        ]
        #: graceful-degradation knob: the admission controller lowers this
        #: below 1.0 when the cluster approaches saturation, and the client
        #: runner scales its dynamic-expansion memory budget by it so new
        #: jobs are admitted smaller instead of shed outright
        self.degrade_factor = 1.0
        self._started = False
        self._dead: set[str] = set()
        self._ticks = 0
        self._tick_lock = make_lock("Cluster._tick_lock")
        self._pumper: Optional[threading.Thread] = None
        self._pumper_stop = threading.Event()
        #: cluster-wide job_id -> (manager, Job) binding; JobHandles
        #: resolve through this so failover re-binds clients transparently
        self.directory = JobDirectory()
        backend_for = (
            journal_factory_for_dir(config.journal_dir)
            if config.journal_dir is not None
            else lambda _name: MemoryJournal()
        )
        for server in self.servers:
            # chaos-triggered node death goes through the full kill path
            server.taskmanager.crash_hook = (
                lambda name=server.name: self.kill_node(name)
            )
            if config.durable:
                server.attach_durability(
                    ReplicatedJournal(
                        backend_for(server.name), self.bus, origin=server.name
                    ),
                    self.directory,
                )
            else:
                # directory still wired: handles resolve even non-durably
                server.jobmanager.directory = self.directory
        if telemetry is not None:
            telemetry.metrics.add_collector(self._fold_state)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "Cluster":
        if self._started:
            return self
        for server in self.servers:
            server.start()
        # flat subnet: every JobManager may upload to every TaskManager
        for manager in self.servers:
            for peer in self.servers:
                manager.connect_peer(peer)
        self._started = True
        return self

    def shutdown(self) -> None:
        self.stop_heartbeats()
        self.transport.stop()
        for server in self.servers:
            server.shutdown()
            journal = server.journal
            if journal is not None:
                close = getattr(journal.backend, "close", None)
                if close is not None:
                    close()  # FileJournal: flush and release the handle
        self._started = False
        verifier = self.lock_verifier
        if verifier is not None:
            self.lock_verifier = None  # idempotent across repeated shutdowns
            uninstall_verifier()
            # raises LockOrderError (with both witness stacks per edge) if
            # any interleaving of this run could deadlock
            verifier.check()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- fault controls ----------------------------------------------------------
    def kill_node(self, name: str) -> None:
        """Abrupt node death: the TaskManager crashes (dropping all its
        hosted tasks) and the server falls off the bus, so it stops
        answering solicitations and stops heartbeating.  Detection and
        recovery happen on subsequent :meth:`tick` calls."""
        server = self.server(name)
        if name in self._dead:
            return
        self._dead.add(name)
        server.taskmanager.crash()
        server.leave_subnet()

    def revive_node(self, name: str) -> None:
        """Bring a dead node back empty; its next heartbeat resurrects it
        in every failure detector and it becomes placeable again.

        Revival also re-admits the node into the default reachability
        set: if a partition was imposed while the node was dead (or it
        was killed mid-partition), stale group membership must not keep
        the rebooted machine isolated from peers outside its old group.
        """
        server = self.server(name)
        if name not in self._dead:
            return
        self._dead.discard(name)
        server.taskmanager.revive()
        server.rejoin_subnet()
        self.bus.readmit(name)
        if self.chaos is not None:
            self.chaos.note_revive(name)
        for peer in self.alive_servers():
            peer.jobmanager.register_taskmanager(server.taskmanager)
            server.jobmanager.register_taskmanager(peer.taskmanager)

    def partition(self, *groups: Sequence[str]) -> None:
        """Split the subnet into isolated groups of node names."""
        self.bus.set_partition(groups)
        if self.chaos is not None:
            # imposed topology changes belong in the structured fault log
            # too, or simulation traces cannot explain delivery gaps
            self.chaos.note_partition(groups)

    def heal_partition(self) -> None:
        self.bus.heal_partition()
        if self.chaos is not None:
            self.chaos.note_heal()

    def alive_servers(self) -> list[CNServer]:
        return [s for s in self.servers if s.name not in self._dead]

    def dead_nodes(self) -> set[str]:
        return set(self._dead)

    # -- failure-detection loop -------------------------------------------------
    def tick(self, steps: int = 1) -> None:
        """One (or more) failure-detection periods, entirely deterministic:
        advance the virtual clock, publish heartbeats, run every live
        JobManager's detector, expire task deadlines."""
        for _ in range(steps):
            with self._tick_lock:
                self._ticks += 1
                self.clock.advance(TICK_PERIOD)
                now = self.clock.now()
                beats = []
                for server in self.alive_servers():
                    beat = server.taskmanager.beat()
                    if beat is not None:
                        beats.append((server.taskmanager.name, beat))
                alive = self.alive_servers()
            # heartbeat fan-out after releasing the tick lock: publish runs
            # listener callbacks (failure detectors, journal relays) that
            # must not execute under Cluster._tick_lock (conclint CC201)
            for sender, beat in beats:
                self.bus.publish("heartbeat", beat, sender=sender)
            # detection + recovery outside the tick lock: recovery can
            # solicit the bus and start task threads
            for server in alive:
                server.jobmanager.on_tick()
            for server in alive:
                server.taskmanager.expire_deadlines(now)

    # -- telemetry ---------------------------------------------------------------
    def _fold_state(self) -> None:
        """Registry collector: set what the registry shows of the cluster
        from the counts the runtime already keeps, each time it is read.

        Per node: liveness, placement headroom, hosted tasks, queued
        messages, queue backpressure outcomes, budget drops, wire volume
        (proc only) and heartbeat misses -- the most any live peer's
        detector has counted against the node's TaskManager.  Per
        manager: jobs created.  Per job id: messages routed, summed over
        every Job registered for it on any manager (a dead manager's and
        its adopter's alike)."""
        metrics = self.telemetry.metrics
        alive = self.alive_servers()
        live = {server.name for server in alive}
        misses: dict[str, int] = {}
        for watcher in alive:
            detector = watcher.jobmanager.failure_detector
            for server in self.servers:
                if server is not watcher:
                    seen = detector.misses(server.taskmanager.name)
                    misses[server.name] = max(misses.get(server.name, 0), seen)
        routed: dict[str, int] = {}
        unsized = 0
        for server in self.servers:
            tm = server.taskmanager
            node = metrics.namespaced(server.name)
            node.gauge("cn_node_alive").set(1.0 if server.name in live else 0.0)
            node.gauge("cn_node_free_memory").set(tm.free_memory)
            node.gauge("cn_node_free_slots").set(tm.free_slots)
            node.gauge("cn_node_hosted_tasks").set(tm.hosted_count())
            node.gauge("cn_node_queued_messages").set(tm.queued_messages())
            node.gauge("cn_node_heartbeat_misses").set(misses.get(server.name, 0))
            rejected, shed = tm.queue_overload_stats()
            node.gauge("cn_queue_rejected_total").set(rejected)
            node.gauge("cn_queue_shed_total").set(shed)
            node.gauge("cn_queue_poisoned_total").set(tm.queue_poisoned())
            node.gauge("cn_budget_drops_total").set(tm.budget_drops)
            manager = server.jobmanager
            created, jobs = manager.census()
            if created:
                metrics.counter(
                    "cn_jobs_created_total", manager=manager.name
                )._set_total(created)
            for job in jobs:
                routed[job.job_id] = routed.get(job.job_id, 0) + job.messages_routed
                unsized += job.payloads_unsized
        for job_id, count in routed.items():
            metrics.counter("cn_messages_routed_total", job=job_id)._set_total(count)
        if routed:
            metrics.counter("cn_payload_unsized_total")._set_total(unsized)
        for name, wire in self.transport.stats().items():
            node = metrics.namespaced(name)
            for stat in ("frames_sent", "frames_received", "bytes_sent", "bytes_received"):
                node.gauge(f"cn_transport_{stat}").set(wire.get(stat, 0))
        metrics.counter("cn_transport_inline_fallbacks_total")._set_total(
            self.transport.inline_fallbacks
        )
        metrics.counter("cn_cluster_ticks_total")._set_total(self._ticks)

    def start_heartbeats(self, interval: float = 0.05) -> None:
        """Run :meth:`tick` on a daemon thread every *interval* wall-clock
        seconds -- for runs that cannot call tick explicitly (the portal,
        examples).  Virtual time still advances by ``TICK_PERIOD`` per
        tick, so deadlines stay in virtual seconds."""
        if self._pumper is not None and self._pumper.is_alive():
            return
        self._pumper_stop.clear()

        def pump() -> None:
            while not self._pumper_stop.wait(interval):
                self.tick()

        self._pumper = threading.Thread(
            target=pump, name="cn-heartbeat-pumper", daemon=True
        )
        self._pumper.start()

    def stop_heartbeats(self) -> None:
        self._pumper_stop.set()
        pumper = self._pumper
        if pumper is not None and pumper.is_alive():
            pumper.join(timeout=2.0)
        self._pumper = None

    # -- conveniences --------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        return [s.name for s in self.servers]

    def server(self, name: str) -> CNServer:
        for s in self.servers:
            if s.name == name:
                return s
        raise KeyError(f"no server named {name!r}")

    def total_free_memory(self) -> int:
        """Aggregate free memory across *live* nodes (a crashed node's
        capacity is not placeable and must not be advertised)."""
        return sum(s.taskmanager.free_memory for s in self.alive_servers())

    def total_memory(self) -> int:
        """Aggregate memory capacity across live nodes."""
        return sum(s.taskmanager.memory_capacity for s in self.alive_servers())

    def total_queued_messages(self) -> int:
        """Messages resident in hosted task queues across live nodes --
        the aggregate backpressure half of the saturation signal."""
        return sum(s.taskmanager.queued_messages() for s in self.alive_servers())

    def __repr__(self) -> str:
        return f"<Cluster {len(self.servers)} node(s)>"
