"""Simulated multicast discovery bus.

"Requests to JobManager are communicated using multicast.  JobManagers
respond to multicast requests for JobManagers if they have free
resources and are willing to be JobManagers." (paper section 3)

The bus is an in-process pub/sub channel: components subscribe with a
responder callable; :meth:`solicit` delivers the request to every
subscriber and collects the non-``None`` responses; :class:`BusStats`
counts deliveries (the real system pays one LAN round-trip per
responder) so the placement benchmarks can compare protocols.

Fault-tolerance extensions:

* :meth:`publish` / :meth:`attach_listener` -- one-way event fan-out
  (heartbeats) alongside the request/response solicitations,
* :meth:`set_partition` -- a network partition: deliveries only cross
  between nodes in the same group; names that are not cluster nodes
  (clients, the portal) are outside the partition and reach everyone,
* an optional :class:`~repro.cn.chaos.ChaosPolicy` that may drop any
  individual delivery (lossy multicast), keyed deterministically by the
  bus-wide delivery index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..analysis.conc.runtime import make_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .chaos import ChaosPolicy

__all__ = ["MulticastBus", "Solicitation", "BusStats"]

Responder = Callable[["Solicitation"], Optional[Any]]
Listener = Callable[[str, Any], None]


def _node_of(name: str) -> str:
    """The node a bus participant belongs to (``node0/tm`` -> ``node0``)."""
    return name.split("/", 1)[0]


def _cut(groups: dict[str, int], home: int, receiver: str) -> bool:
    """Whether the partition *groups* separates *receiver* from a sender
    in group *home* (a name outside every group is reachable)."""
    group = groups.get(_node_of(receiver))
    return group is not None and group != home


@dataclass(frozen=True)
class Solicitation:
    """A multicast request: what is being solicited and its requirements."""

    kind: str  # "jobmanager" (who will manage a job) | "rule" (a placement round)
    requirements: dict
    sender: str


@dataclass
class BusStats:
    """Deterministic accounting used by the placement benchmarks."""

    solicitations: int = 0
    deliveries: int = 0
    responses: int = 0
    publishes: int = 0
    dropped: int = 0      # chaos-injected delivery losses
    partitioned: int = 0  # deliveries blocked by an active partition
    listener_errors: int = 0  # publish deliveries whose listener raised
    responder_errors: int = 0  # solicit deliveries whose responder raised


class MulticastBus:
    """In-process multicast with response collection."""

    def __init__(self, *, chaos: "Optional[ChaosPolicy]" = None) -> None:
        # copy-on-write rosters: replaced whole under the lock, so a round
        # reads one immutable tuple instead of copying a list
        self._subscribers: tuple[tuple[str, Responder], ...] = ()
        self._listeners: tuple[tuple[str, Listener], ...] = ()
        self._lock = make_lock("MulticastBus._lock")
        self.chaos = chaos
        self.stats = BusStats()
        #: node -> partition group, or None; replaced whole, never
        #: mutated, so a round's snapshot stays the map it read
        self._groups: Optional[dict[str, int]] = None
        self._delivery_index = 0
        #: cluster Telemetry hub; set by Cluster wiring (None = no metrics)
        self.telemetry: Optional[Any] = None
        #: per-solicitation latency histogram, bound once at wiring time
        #: so the hot path pays one None-check when telemetry is off
        self._solicit_hist: Optional[Any] = None

    def set_telemetry(self, telemetry: Optional[Any]) -> None:
        """Register a scrape-time collector that folds :class:`BusStats`
        into the registry -- the publish/solicit hot paths already count
        into plain ints, so per-event metric increments would only pay
        the same cost twice."""
        if telemetry is None:
            self.telemetry = None
            self._solicit_hist = None
            return
        self.telemetry = telemetry
        self._solicit_hist = telemetry.metrics.histogram("cn_solicit_seconds")
        telemetry.metrics.add_collector(self._collect_bus_stats)

    def _collect_bus_stats(self) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        metrics = telemetry.metrics
        metrics.counter("cn_bus_publishes_total")._set_total(self.stats.publishes)
        metrics.counter("cn_bus_solicitations_total")._set_total(
            self.stats.solicitations
        )
        metrics.counter("cn_bus_dropped_total")._set_total(self.stats.dropped)
        metrics.counter("cn_bus_listener_errors_total")._set_total(
            self.stats.listener_errors
        )
        metrics.counter("cn_bus_responder_errors_total")._set_total(
            self.stats.responder_errors
        )

    def subscribe(self, name: str, responder: Responder) -> None:
        with self._lock:
            self._subscribers += ((name, responder),)

    def unsubscribe(self, name: str) -> None:
        with self._lock:
            self._subscribers = tuple(
                entry for entry in self._subscribers if entry[0] != name
            )

    # -- event listeners (heartbeats) -----------------------------------------
    def attach_listener(self, name: str, listener: Listener) -> None:
        """Register a one-way event listener (no response collected)."""
        with self._lock:
            self._listeners += ((name, listener),)

    def detach_listener(self, name: str) -> None:
        with self._lock:
            self._listeners = tuple(
                entry for entry in self._listeners if entry[0] != name
            )

    def publish(self, topic: str, payload: Any, *, sender: str = "") -> int:
        """Deliver an event to every reachable listener; returns the
        number of successful deliveries.  Listeners that raise are
        skipped and counted in ``stats.listener_errors`` (a crashed node
        must not take down the subnet, but a replica that fell behind
        must show).  One publish reads one roster and one partition map:
        a listener that changes either affects the next call, not this
        one."""
        with self._lock:
            listeners = self._listeners
            groups = self._groups
        home = None if groups is None else groups.get(_node_of(sender))
        chaos = self.chaos if self.chaos is not None and self.chaos.enabled else None
        delivered = blocked = dropped = errors = 0
        for name, listener in listeners:
            if home is not None and _cut(groups, home, name):
                blocked += 1
                continue
            if chaos is not None and self._chaos_drops(chaos, sender, name):
                dropped += 1
                continue
            try:
                listener(topic, payload)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- a crashed listener must not take down the subnet
                errors += 1
                continue
            delivered += 1
        stats = self.stats
        with self._lock:
            stats.publishes += 1
            stats.partitioned += blocked
            stats.dropped += dropped
            stats.listener_errors += errors
        return delivered

    # -- partitions ---------------------------------------------------------------
    def set_partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the subnet: deliveries cross only within a group.
        Participants not named in any group (clients, the portal) are
        outside the partition and stay reachable from everywhere."""
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                mapping[_node_of(name)] = index
        with self._lock:
            self._groups = mapping

    def heal_partition(self) -> None:
        with self._lock:
            self._groups = None

    def readmit(self, name: str) -> None:
        """Return one node to the default reachability set (heal-on-
        revive): a rebooted machine rejoins the open subnet rather than
        inheriting the partition group it died in.  If that empties the
        partition map the partition is fully healed."""
        node = _node_of(name)
        with self._lock:
            if self._groups is not None:
                groups = {n: g for n, g in self._groups.items() if n != node}
                self._groups = groups or None

    def reachable(self, sender: str, receiver: str) -> bool:
        with self._lock:
            groups = self._groups
        if groups is None:
            return True
        home = groups.get(_node_of(sender))
        return home is None or not _cut(groups, home, receiver)

    # -- solicitations -----------------------------------------------------------
    def solicit(self, solicitation: Solicitation) -> list[tuple[str, Any]]:
        """Deliver to all subscribers; collect willing (name, offer) pairs.

        Delivery order is subscription order, making runs deterministic;
        responders that raise are treated as unwilling (a crashed node
        must not take down discovery) and counted in
        ``stats.responder_errors``.  One round reads one roster and one
        partition map, as :meth:`publish` does.
        """
        with self._lock:
            subscribers = self._subscribers
            groups = self._groups
        sender = solicitation.sender
        home = None if groups is None else groups.get(_node_of(sender))
        chaos = self.chaos if self.chaos is not None and self.chaos.enabled else None
        hist = self._solicit_hist
        start = time.perf_counter() if hist is not None else 0.0
        offers: list[tuple[str, Any]] = []
        blocked = dropped = errors = 0
        for name, responder in subscribers:
            if home is not None and _cut(groups, home, name):
                blocked += 1
                continue
            if chaos is not None and self._chaos_drops(chaos, sender, name):
                dropped += 1
                continue
            try:
                offer = responder(solicitation)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- a crashed responder must not take down discovery
                errors += 1
                continue
            if offer is not None:
                offers.append((name, offer))
        stats = self.stats
        with self._lock:
            stats.solicitations += 1
            stats.deliveries += len(subscribers) - blocked - dropped
            stats.responses += len(offers)
            stats.partitioned += blocked
            stats.dropped += dropped
            stats.responder_errors += errors
        if hist is not None:
            hist.observe(time.perf_counter() - start)
        return offers

    def _chaos_drops(self, chaos: "ChaosPolicy", sender: str, receiver: str) -> bool:
        """Whether *chaos* loses this delivery, keyed by the bus-wide
        delivery index."""
        with self._lock:
            self._delivery_index += 1
            index = self._delivery_index
        return chaos.bus_drop(sender, receiver, index)
