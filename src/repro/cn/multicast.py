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
        self._subscribers: list[tuple[str, Responder]] = []
        self._listeners: list[tuple[str, Listener]] = []
        self._lock = make_lock("MulticastBus._lock")
        self.chaos = chaos
        self.stats = BusStats()
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
            self._subscribers.append((name, responder))

    def unsubscribe(self, name: str) -> None:
        with self._lock:
            self._subscribers = [(n, r) for n, r in self._subscribers if n != name]

    def subscriber_names(self) -> list[str]:
        with self._lock:
            return [n for n, _ in self._subscribers]

    # -- event listeners (heartbeats) -----------------------------------------
    def attach_listener(self, name: str, listener: Listener) -> None:
        """Register a one-way event listener (no response collected)."""
        with self._lock:
            self._listeners.append((name, listener))

    def detach_listener(self, name: str) -> None:
        with self._lock:
            self._listeners = [(n, f) for n, f in self._listeners if n != name]

    def publish(self, topic: str, payload: Any, *, sender: str = "") -> int:
        """Deliver an event to every reachable listener; returns the
        number of successful deliveries.  Listeners that raise are
        skipped and counted in ``stats.listener_errors`` (a crashed node
        must not take down the subnet, but a replica that fell behind
        must show)."""
        with self._lock:
            listeners = list(self._listeners)
            partitioned = self._groups is not None
        chaotic = self.chaos is not None and self.chaos.enabled
        self.stats.publishes += 1
        delivered = 0
        for name, listener in listeners:
            if partitioned and not self.reachable(sender, name):
                self.stats.partitioned += 1
                continue
            if chaotic and self._chaos_drops(sender, name):
                continue
            try:
                listener(topic, payload)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- a crashed listener must not take down the subnet
                self.stats.listener_errors += 1
                continue
            delivered += 1
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
                self._groups.pop(node, None)
                if not self._groups:
                    self._groups = None

    def reachable(self, sender: str, receiver: str) -> bool:
        with self._lock:
            groups = self._groups
        if groups is None:
            return True
        sender_group = groups.get(_node_of(sender))
        receiver_group = groups.get(_node_of(receiver))
        if sender_group is None or receiver_group is None:
            return True  # at least one endpoint is outside the partition
        return sender_group == receiver_group

    # -- solicitations -----------------------------------------------------------
    def solicit(self, solicitation: Solicitation) -> list[tuple[str, Any]]:
        """Deliver to all subscribers; collect willing (name, offer) pairs.

        Delivery order is subscription order, making runs deterministic;
        responders that raise are treated as unwilling (a crashed node
        must not take down discovery) and counted in
        ``stats.responder_errors``.
        """
        with self._lock:
            subscribers = list(self._subscribers)
            partitioned = self._groups is not None
        chaotic = self.chaos is not None and self.chaos.enabled
        self.stats.solicitations += 1
        hist = self._solicit_hist
        start = time.perf_counter() if hist is not None else 0.0
        offers: list[tuple[str, Any]] = []
        for name, responder in subscribers:
            if partitioned and not self.reachable(solicitation.sender, name):
                self.stats.partitioned += 1
                continue
            if chaotic and self._chaos_drops(solicitation.sender, name):
                continue
            self.stats.deliveries += 1
            try:
                offer = responder(solicitation)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- a crashed responder must not take down discovery
                self.stats.responder_errors += 1
                continue
            if offer is not None:
                self.stats.responses += 1
                offers.append((name, offer))
        if hist is not None:
            hist.observe(time.perf_counter() - start)
        return offers

    def _chaos_drops(self, sender: str, receiver: str) -> bool:
        chaos = self.chaos
        if chaos is None or not chaos.enabled:
            return False
        with self._lock:
            self._delivery_index += 1
            index = self._delivery_index
        if chaos.bus_drop(sender, receiver, index):
            self.stats.dropped += 1
            return True
        return False
