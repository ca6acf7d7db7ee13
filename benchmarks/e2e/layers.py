"""The per-layer table: counters the program already exposes, read from
outside, folded with the benchmark's own spans into one value per metric
named in ``BENCHMARK.json``.

``snapshot`` and ``facts`` are the observer the block loop calls around
and after each traced op (both untimed); ``per_layer`` does the folding.
"""

from __future__ import annotations

import re
import time
from typing import Any

from repro.core.transform import xmi_to_cnx_native

from .harness import (
    Block,
    Tracer,
    good_ops,
    median,
    normalised_ms,
    quantile,
    self_times,
)

__all__ = ["snapshot", "facts", "per_layer"]

_WIRE = ("frames_sent", "bytes_sent", "frames_received", "bytes_received")


def snapshot(cluster: Any) -> dict[str, float]:
    """Cumulative counters of *cluster*, keyed by the metric their per-op
    delta becomes."""
    bus = cluster.bus.stats
    metrics = cluster.telemetry.metrics
    payload = metrics.find("cn_payload_bytes")
    out = {
        "cn.multicast.solicitations": bus.solicitations,
        "cn.multicast.deliveries": bus.deliveries,
        "cn.multicast.responses": bus.responses,
        "cn.multicast.publishes": bus.publishes,
        "cn.jobmanager.jobs_created": metrics.total("cn_jobs_created_total"),
        "cn.scheduler.rules": metrics.total("cn_rules_published_total"),
        "cn.scheduler.bids": metrics.total("cn_bids_total"),
        "cn.scheduler.awards": metrics.total("cn_awards_total"),
        "cn.job.messages_routed": metrics.total("cn_messages_routed_total"),
        "cn.job.payload_bytes": payload.sum if payload is not None else 0.0,
        "cn.taskmanager.attempts": metrics.total("cn_task_outcomes_total"),
        "cn.taskmanager.retries": metrics.value(
            "cn_task_outcomes_total", outcome="RETRYING"
        ) or 0.0,
        "cn.transport.frames_coalesced_per_op": metrics.total(
            "cn_transport_frames_coalesced_total"
        ),
    }
    wire = list(cluster.transport.stats().values())
    for key in _WIRE:
        out[f"cn.transport.{key}_per_op"] = sum(node.get(key, 0) for node in wire)
    return out


def facts(cluster: Any, outcome: Any) -> dict[str, float]:
    """What one finished op left behind: its jobs' journal records and
    telemetry spans, and the sizes of its artifacts."""
    telemetry = cluster.telemetry
    journal = cluster.servers[0].journal  # every node holds a full replica
    records = spans = 0
    attempts: list[float] = []
    path_ms = coverage = 0.0
    for job_id in outcome.job_ids:
        records += len(journal.records(job_id))
        job_spans = telemetry.spans.spans(job_id)
        spans += len(job_spans)
        attempts += [
            s.duration * 1000.0
            for s in job_spans
            if s.kind == "attempt" and s.duration is not None
        ]
        path = telemetry.critical_path(job_id)
        path_ms += path.path_duration * 1000.0
        coverage = path.coverage
    out = {
        "cn.durability.journal_records_per_op": records,
        "cn.telemetry.spans_per_op": spans,
        "cn.taskmanager.attempt_ms_p50": median(attempts),
        "cn.telemetry.critical_path_ms": path_ms,
        "cn.telemetry.critical_path_coverage": coverage,
        "tasks": outcome.tasks,
    }
    artifacts = outcome.artifacts
    if artifacts is not None:
        start = time.perf_counter()
        xmi_to_cnx_native(artifacts.xmi_text)
        out["native_ms"] = (time.perf_counter() - start) * 1000.0
        out["xmi_elements"] = len(re.findall(r"<[A-Za-z]", artifacts.xmi_text))
        out["core.xmi.bytes"] = len(artifacts.xmi_text.encode("utf-8"))
        out["core.cnx.bytes"] = len(artifacts.cnx_text.encode("utf-8"))
        out["core.transform.client_bytes"] = len(
            artifacts.python_source.encode("utf-8")
        )
    return out


def _p50(blocks: list[Block]) -> float:
    return median(normalised_ms(good_ops(blocks)))


def per_layer(
    names: list[str],
    tracer: Tracer,
    *,
    traced: list[Block],
    plain: list[Block],
    user: list[Block],
    no_telemetry: list[Block],
    no_durability: list[Block],
    xslt_load_ms: float,
    kernel_ms: float,
) -> dict[str, float]:
    """One value per name in *names* (the ``per_layer`` list of
    ``BENCHMARK.json``).  *plain* is the untraced counterpart of the
    *traced* pass; *user* is the op as a user calls it where that differs
    (``Portal.submit``), else the same blocks as *plain*."""
    ops = [op for block in traced for op in block.ops]
    per_op = self_times(tracer.spans)
    # spans of op k belong to the k-th traced op; failed ops keep their
    # spans but are left out of every median
    rows = [
        (op, per_op.get(index, {}))
        for index, op in enumerate(ops)
        if not op.error
    ]

    def span_ms(name: str) -> list[float]:
        return [times.get(name, 0.0) / op.speed for op, times in rows]

    def count(name: str) -> float:
        return median([op.counts.get(name, 0.0) for op, _ in rows])

    def rate(amount: str, span: str) -> float:
        """Median of amount / span seconds, over the ops that spent any."""
        return median(
            [
                op.counts.get(amount, 0.0) / (times[span] / op.speed / 1000.0)
                for op, times in rows
                if times.get(span, 0.0) > 0.0
            ]
        )

    plain_p50 = _p50(plain)
    user_ms = normalised_ms(good_ops(user))
    traced_p50 = median([op.wall_ms / op.speed for op, _ in rows])
    default_blocks = plain + traced
    values = {
        "xslt.load_ms": xslt_load_ms,
        "xslt.nodes_per_s": rate("xmi_elements", "xslt.transform"),
        "xslt.vs_native_ratio": median(
            [
                times["xslt.transform"] / op.counts["native_ms"]
                for op, times in rows
                if "native_ms" in op.counts
            ]
        ),
        "cn.scheduler.tasks_placed_per_s": rate("tasks", "cn.scheduler.place"),
        "cn.queues.msgs_per_s": rate("cn.job.messages_routed", "cn.api.wait"),
        # the first block of the process: later ones refill memory the
        # allocator kept, and their RSS does not move
        "cn.durability.retained_mb_per_op": plain[0].retained_mb / len(plain[0].ops),
        "cn.durability.cost_ms": plain_p50 - _p50(no_durability),
        "cn.telemetry.cost_ms": plain_p50 - _p50(no_telemetry),
        "cn.transport.worker_cpu_ms_per_op": median(
            [op.worker_cpu_ms / op.speed for op, _ in rows]
        ),
        "cn.transport.coordinator_threads": max(b.threads for b in traced),
        "cn.portal.submit_overhead_ms": median(user_ms) - plain_p50,
        "apps.floyd.kernel_serial_ms": kernel_ms,
        "apps.floyd.coordination_ratio": (
            median(user_ms) / kernel_ms if kernel_ms else 0.0
        ),
        "harness.ops": len(rows),
        "harness.op_latency_p90_ms": quantile(user_ms, 0.90),
        "harness.op_latency_max_ms": max(user_ms, default=0.0),
        "harness.unattributed_pct": median(
            [100.0 * times["op"] / op.wall_ms for op, times in rows]
        ),
        "harness.trace_overhead_pct": (
            100.0 * (traced_p50 / plain_p50 - 1.0) if plain_p50 else 0.0
        ),
        "harness.calib_ms": median(
            [ms for block in default_blocks for ms in block.calib_ms]
        ),
        "harness.block_rebuild_s": median([b.rebuild_s for b in default_blocks]),
    }
    counted = {key for op, _ in rows for key in op.counts}
    for name in names:
        if name in values:
            continue
        if name in counted:
            values[name] = count(name)
        else:  # "<span>_ms": a layer this workload never enters reads 0
            values[name] = median(span_ms(name.removesuffix("_ms")))
    return {name: values[name] for name in names}

