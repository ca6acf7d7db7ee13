"""Per-node samplers: turn cluster state into gauges on each tick.

``Cluster.tick`` calls :func:`sample_cluster` once per step (when
telemetry is enabled), refreshing per-node gauges:

* ``cn_node_free_memory`` / ``cn_node_free_slots`` -- placement headroom
  as the JobManagers' best-fit scoring sees it;
* ``cn_node_hosted_tasks`` -- tasks currently hosted by the node;
* ``cn_node_queued_messages`` -- messages sitting in the node's hosted
  task queues (backpressure signal);
* ``cn_queue_rejected_total`` / ``cn_queue_shed_total`` -- backpressure
  outcomes on the node's hosted queues (puts refused by the ``reject``
  policy, oldest messages evicted by ``shed_oldest``);
* ``cn_budget_drops_total`` -- task attempts dropped because their
  job's end-to-end budget was already spent;
* ``cn_node_heartbeat_misses`` -- consecutive missed heartbeats as seen
  by the watching failure detectors (max over watchers), i.e. how close
  each node is to being declared dead;
* ``cn_node_alive`` -- 1/0 liveness flag;
* ``cn_transport_{frames,bytes}_{sent,received}`` -- what each node's
  worker process put on and took off the wire (proc transport only);
* ``cn_cluster_ticks_total`` -- detection periods elapsed.

Everything is duck-typed against the ``Cluster``/``CNServer`` surface
(``alive_servers``, ``taskmanager``, ``jobmanager``, ``transport``) so
this module never imports the runtime -- the runtime imports *us*.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry

__all__ = ["sample_cluster", "sample_node"]


def sample_node(
    registry: MetricsRegistry, server: Any, *, alive: bool = True
) -> None:
    """Refresh one node's gauges from its TaskManager state.

    All series go through the registry's node-scoped view, the single
    namespacing point that keeps per-node families from colliding (the
    proc backend merges worker-forwarded counters through the same
    view)."""
    scoped = registry.namespaced(server.name)
    scoped.gauge("cn_node_alive").set(1.0 if alive else 0.0)
    tm = server.taskmanager
    scoped.gauge("cn_node_free_memory").set(tm.free_memory)
    scoped.gauge("cn_node_free_slots").set(tm.free_slots)
    scoped.gauge("cn_node_hosted_tasks").set(tm.hosted_count())
    scoped.gauge("cn_node_queued_messages").set(tm.queued_messages())
    # backpressure outcomes across the node's hosted queues: how many
    # puts were refused (reject policy) or evicted (shed_oldest)
    rejected, shed = tm.queue_overload_stats()
    scoped.gauge("cn_queue_rejected_total").set(rejected)
    scoped.gauge("cn_queue_shed_total").set(shed)
    # frames quarantined by dequeue-time digest verification
    scoped.gauge("cn_queue_poisoned_total").set(tm.queue_poisoned())
    scoped.gauge("cn_budget_drops_total").set(tm.budget_drops)


def sample_cluster(registry: MetricsRegistry, cluster: Any) -> None:
    """Refresh every node's gauges plus cluster-level counters."""
    alive = {server.name for server in cluster.alive_servers()}
    misses: dict[str, int] = {}
    for server in cluster.servers:
        if server.name not in alive:
            continue
        detector = server.jobmanager.failure_detector
        for peer in cluster.servers:
            if peer.name == server.name:
                continue
            seen = detector.misses(peer.name)
            misses[peer.name] = max(misses.get(peer.name, 0), seen)
    for server in cluster.servers:
        sample_node(registry, server, alive=server.name in alive)
        registry.gauge("cn_node_heartbeat_misses", node=server.name).set(
            misses.get(server.name, 0)
        )
    for node, wire in cluster.transport.stats().items():
        # namespaced by node id so the proc backend's workers never
        # collide on a series
        scoped = registry.namespaced(node)
        for stat in ("frames_sent", "frames_received", "bytes_sent", "bytes_received"):
            scoped.gauge(f"cn_transport_{stat}").set(wire.get(stat, 0))
    registry.counter("cn_cluster_ticks_total").inc()
