#!/usr/bin/env python3
"""Observability tour: metrics, spans, critical path, and exporters.

Every cluster carries a :class:`repro.cn.telemetry.Telemetry` hub by
default -- the runtime's flight recorder.  This tour runs one parallel Floyd job
and then reads the instruments:

1. **metrics** -- counters/gauges/histograms the runtime maintained
   while the job ran (messages routed, placements, task durations),
   rendered in the Prometheus text format the portal serves at
   ``GET /metrics``;
2. **spans** -- the job's causal span tree (job -> task -> placement /
   attempt), one trace per job (trace id == job id), connected even
   across retries and manager failovers;
3. **critical path** -- the dependency chain that determined the
   makespan, plus per-task slack: the measured counterpart of the
   paper's speedup analysis;
4. **exporters** -- the same trace written as Chrome ``trace_event``
   JSON (load it in chrome://tracing or https://ui.perfetto.dev) and as
   JSONL for the ``python -m repro.telemetry`` CLI.

Run:  python examples/telemetry_tour.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.cn import Cluster
from repro.cn.telemetry import orphan_spans

N = 24
WORKERS = 4


def main() -> None:
    matrix = random_weighted_graph(N, seed=5, density=0.3)

    print(f"=== 0. run: parallel Floyd, N={N}, {WORKERS} workers ===")
    with Cluster(4, registry=floyd_registry(), memory_per_node=10**6) as cluster:
        result, _pipeline = run_parallel_floyd(
            matrix, n_workers=WORKERS, cluster=cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))
        telemetry = cluster.telemetry
        [trace_id] = telemetry.spans.trace_ids()
        print(f"    job done; trace id = {trace_id}\n")

        print("=== 1. metrics (Prometheus text, excerpt) ===")
        for line in telemetry.prometheus_text().splitlines():
            if line.startswith(("cn_jobs", "cn_placements", "cn_task_outcomes",
                                "cn_messages_routed")):
                print(f"    {line}")
        durations = telemetry.metrics.find("cn_task_duration_seconds", node="node1")
        if durations is not None:
            print(f"    task duration percentiles on node1: "
                  f"{durations.percentiles()}")
        print()

        print("=== 2. the span tree ===")
        spans = telemetry.spans.spans(trace_id)
        assert orphan_spans(spans) == [], "the trace must be one connected tree"
        children: dict = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        def show(span_id, depth=0):
            for span in children.get(span_id, []):
                ms = (span.duration or 0.0) * 1e3
                print(f"    {'  ' * depth}{span.span_id:<24} {ms:8.2f} ms"
                      f"  [{span.kind}{', ' + span.node if span.node else ''}]")
                show(span.span_id, depth + 1)

        show(None)
        print(f"    ({len(spans)} spans, all connected)\n")

        print("=== 3. critical path & slack ===")
        cp = telemetry.critical_path(trace_id)
        print(f"    path: {' -> '.join(cp.task_names)}")
        print(f"    path duration {cp.path_duration * 1e3:.1f} ms of "
              f"{cp.makespan * 1e3:.1f} ms makespan "
              f"(coverage {cp.coverage:.0%})")
        for task, slack in sorted(cp.slack.items()):
            marker = "  <- critical" if task in cp.task_names else ""
            print(f"    slack {task:<12} {slack * 1e3:7.1f} ms{marker}")
        print()

        print("=== 4. exporters ===")
        out = Path(tempfile.mkdtemp(prefix="cn-telemetry-"))
        chrome = out / "floyd_trace.json"
        jsonl = out / "floyd_trace.jsonl"
        telemetry.dump_chrome_trace(str(chrome), trace_id)
        telemetry.dump_jsonl(str(jsonl), trace_id)
        events = json.loads(chrome.read_text())["traceEvents"]
        print(f"    {chrome}  ({len(events)} trace events -- open in "
              "chrome://tracing or Perfetto)")
        print(f"    {jsonl}  (feed to: python -m repro.telemetry "
              f"critical-path {jsonl})")


if __name__ == "__main__":
    main()
