"""repro.cn.telemetry: first-class observability for the CN runtime.

The paper's evaluation hinges on knowing where a composed job's
wall-clock time goes; this subsystem is the measurement layer that
answers it.  One :class:`Telemetry` hub per cluster bundles:

* a :class:`~repro.cn.telemetry.metrics.MetricsRegistry` of counters,
  gauges, and streaming histograms (always-on, <5% overhead budget --
  see ``benchmarks/test_perf_telemetry.py``);
* a :class:`~repro.cn.telemetry.spans.SpanRecorder` collecting one
  causal span tree per job (trace id == job id), propagated across
  retries, node failures, and manager failovers via the ``trace_ctx``
  carried on every :class:`~repro.cn.messages.Message`;
* the :func:`~repro.cn.telemetry.critical_path.critical_path` analyzer
  folding spans + task DAG into the job's critical path and slack;
* exporters (Prometheus text, Chrome ``trace_event`` JSON, JSONL).

State the runtime already counts (node headroom and liveness, heartbeat
misses, wire volume, routed messages, jobs created, bus stats) reaches
the registry one way: a collector the runtime registers with
:meth:`~repro.cn.telemetry.metrics.MetricsRegistry.add_collector` folds
it in whenever the registry is read.  Nothing here imports the runtime;
the dependency points runtime -> telemetry only.

``Cluster(telemetry=Telemetry())`` is the default; ``Cluster(telemetry=None)``
turns instrumentation off, which costs one ``is None`` test on the hot
paths.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any, Callable, Optional

from .critical_path import CriticalPath, TaskInterval, critical_path, task_intervals
from .export import (
    chrome_trace,
    prometheus_text,
    read_jsonl,
    spans_to_jsonl,
    write_jsonl,
)
from .metrics import (
    BYTES_BUCKETS,
    DURATION_BUCKETS,
    NULL_COUNTER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeScopedMetrics,
    NullMetric,
)
from .spans import Span, SpanRecorder, orphan_spans, span_children

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "NodeScopedMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "NullMetric",
    "NULL_COUNTER",
    "DURATION_BUCKETS",
    "BYTES_BUCKETS",
    "Span",
    "SpanRecorder",
    "span_children",
    "orphan_spans",
    "CriticalPath",
    "TaskInterval",
    "critical_path",
    "task_intervals",
    "prometheus_text",
    "chrome_trace",
    "spans_to_jsonl",
    "write_jsonl",
    "read_jsonl",
]


class Telemetry:
    """The per-cluster observability hub: metrics + spans + exports."""

    def __init__(self, *, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock=self._clock)

    def now(self) -> float:
        return self._clock()

    # -- analysis ------------------------------------------------------------
    def critical_path(self, trace_id: str) -> CriticalPath:
        """Critical path of one traced job (trace id == job id)."""
        return critical_path(self.spans.spans(trace_id), trace_id=trace_id)

    # -- export conveniences -------------------------------------------------
    def prometheus_text(self) -> str:
        return prometheus_text(self.metrics)

    def chrome_trace(self, trace_id: Optional[str] = None) -> dict[str, Any]:
        return chrome_trace(self.spans.spans(trace_id))

    def write_jsonl(
        self,
        stream: IO[str],
        trace_id: Optional[str] = None,
        *,
        include_metrics: bool = True,
    ) -> int:
        return write_jsonl(
            stream,
            spans=self.spans.spans(trace_id),
            registry=self.metrics if include_metrics else None,
        )

    def dump_chrome_trace(
        self, path: str, trace_id: Optional[str] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(trace_id), handle, indent=1)

    def dump_jsonl(self, path: str, trace_id: Optional[str] = None) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle, trace_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry: {len(self.spans)} span(s), "
            f"{len(self.metrics.all_metrics())} metric(s)>"
        )
