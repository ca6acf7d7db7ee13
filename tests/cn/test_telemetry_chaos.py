"""Span propagation under chaos: retries, node kills, manager failover.

The structural invariant under test: however violently a job executes --
crashed attempts, fenced zombies, killed nodes, a dead JobManager whose
successor adopts the job -- its telemetry remains ONE trace (trace id ==
job id) forming ONE connected span tree, and the exported Chrome
trace_event JSON carries enough identity to prove it from the file
alone.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.apps.floyd import floyd_registry, floyd_warshall, random_weighted_graph
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
)
from repro.apps.floyd.tasks import TCTask
from repro.cn import CNAPI, Cluster, TaskSpec
from repro.cn.telemetry import orphan_spans
from repro.cn.telemetry.critical_path import task_intervals

from .test_retry import flaky_registry, flaky_spec

pytestmark = pytest.mark.chaos


class Gate:
    """Blocks every worker at the end of step ``k`` until released."""

    def __init__(self, k: int, expected: int) -> None:
        self.k = k
        self.expected = expected
        self.release = threading.Event()
        self.all_reached = threading.Event()
        self._lock = threading.Lock()
        self._count = 0

    def hit(self) -> None:
        with self._lock:
            self._count += 1
            if self._count >= self.expected:
                self.all_reached.set()
        self.release.wait(30)


def gated_registry(gate: Gate):
    class GatedTCTask(TCTask):
        checkpoint_every = 1

        def _after_step(self, k, ctx):
            if k == gate.k and not gate.release.is_set():
                gate.hit()

    registry = floyd_registry()
    registry.register_class(WORKER_JAR, WORKER_CLASS, GatedTCTask)
    return registry


def build_floyd_job(api, source, workers, *, retries=2):
    handle = api.create_job("client", requirements={"prefer": "node0"})
    api.create_task(
        handle,
        TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS, params=(source,)),
    )
    names = [f"w{i}" for i in range(workers)]
    for i, name in enumerate(names):
        api.create_task(
            handle,
            TaskSpec(name=name, jar=WORKER_JAR, cls=WORKER_CLASS,
                     params=(i + 1,), depends=("split",), max_retries=retries),
        )
    api.create_task(
        handle,
        TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS,
                 params=("",), depends=tuple(names)),
    )
    api.start_job(handle)
    return handle


def assert_connected_chrome_export(telemetry, trace_id, path):
    """Acceptance check: the exported Chrome trace_event JSON holds one
    connected span tree for *trace_id*, provable from the file alone."""
    telemetry.dump_chrome_trace(str(path), trace_id)
    doc = json.loads(path.read_text())
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert complete, "export holds no spans"
    by_id = {e["args"]["span_id"]: e for e in complete}
    assert all(e["args"]["trace_id"] == trace_id for e in complete)
    roots = [e for e in complete if e["args"]["parent_id"] is None]
    assert [e["args"]["span_id"] for e in roots] == ["job"]
    dangling = [
        e["args"]["span_id"]
        for e in complete
        if e["args"]["parent_id"] is not None
        and e["args"]["parent_id"] not in by_id
    ]
    assert dangling == [], f"orphan spans in export: {dangling}"
    return complete


class TestRetrySpans:
    """A crashed-and-retried task: one trace id, distinct sibling attempt
    spans under the one task span."""

    def test_attempts_share_trace_with_distinct_spans(self, tmp_path):
        registry = flaky_registry("tele-retry", failures=2)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=2))
            api.start_job(handle)
            api.wait(handle, timeout=15)
            telemetry = cluster.telemetry
            spans = telemetry.spans.spans(handle.job_id)
            attempts = [s for s in spans if s.kind == "attempt"]
            assert len(attempts) == 3
            assert len({s.span_id for s in attempts}) == 3  # distinct spans
            assert {s.trace_id for s in attempts} == {handle.job_id}
            assert {s.parent_id for s in attempts} == {"task:f"}
            assert orphan_spans(spans) == []
            # the folded interval counts every attempt against the task
            assert task_intervals(spans)["f"].attempts == 3
            assert_connected_chrome_export(
                telemetry, handle.job_id, tmp_path / "retry.json"
            )


class TestWorkerKillSpans:
    """A worker node killed mid-run: the re-placed attempt appears as a
    sibling span (higher epoch, different node) in the same trace; the
    zombie's span is closed fenced."""

    def test_replaced_attempt_same_trace(self):
        n, workers, gate_k = 6, 2, 2
        matrix = random_weighted_graph(n, seed=23)
        source = store_matrix("tele-worker-kill", matrix)
        gate = Gate(gate_k, expected=workers)
        cluster = Cluster(3, registry=gated_registry(gate))
        cluster.servers[0].accept_tasks = False  # node0: manager only
        try:
            with cluster:
                api = CNAPI.initialize(cluster)
                handle = build_floyd_job(api, source, workers)
                assert gate.all_reached.wait(30)
                victim = handle.job.task("w0").node_name.split("/")[0]
                assert victim != "node0"
                cluster.kill_node(victim)
                cluster.tick(3)
                gate.release.set()
                results = api.wait(handle, timeout=60)
                assert np.allclose(results["join"], floyd_warshall(matrix))
                spans = cluster.telemetry.spans.spans(handle.job_id)
        finally:
            gate.release.set()
        assert orphan_spans(spans) == []
        w0_attempts = sorted(
            (s for s in spans if s.kind == "attempt" and s.attrs.get("task") == "w0"),
            key=lambda s: s.attrs["epoch"],
        )
        assert len(w0_attempts) >= 2
        assert {s.trace_id for s in w0_attempts} == {handle.job_id}
        # the re-placed attempt ran on a surviving node
        assert w0_attempts[-1].node != victim
        assert w0_attempts[-1].attrs["state"] == "COMPLETED"
        # the zombie on the dead node was fenced, not counted as effective
        fenced = [s for s in w0_attempts if s.attrs.get("fenced")]
        assert fenced and fenced[0].node == victim


class TestManagerFailoverSpans:
    """The managing node dies mid-Floyd; the successor adopts the job.
    The trace survives whole: same trace id across manager epochs, an
    adopt span under the root, and a connected exported tree."""

    def test_one_connected_trace_across_manager_epochs(self, tmp_path):
        n, workers, gate_k = 8, 3, 1
        matrix = random_weighted_graph(n, seed=11)
        source = store_matrix("tele-mgr-kill", matrix)
        gate = Gate(gate_k, expected=workers)
        cluster = Cluster(4, registry=gated_registry(gate))
        cluster.servers[0].accept_tasks = False  # node0 manages only
        try:
            with cluster:
                api = CNAPI.initialize(cluster)
                handle = build_floyd_job(api, source, workers)
                job_id = handle.job_id
                assert gate.all_reached.wait(30)
                cluster.kill_node("node0")  # the managing node
                cluster.tick(4)  # detect; a successor adopts + re-places
                gate.release.set()
                results = api.wait(handle, timeout=60)
                assert np.allclose(results["join"], floyd_warshall(matrix))
                telemetry = cluster.telemetry
                spans = telemetry.spans.spans(job_id)
                # exactly one successor adopted the job
                adopters = [
                    s.jobmanager for s in cluster.alive_servers()
                    if job_id in s.jobmanager.adopted_jobs
                ]
                assert len(adopters) == 1
                exported = assert_connected_chrome_export(
                    telemetry, job_id, tmp_path / "failover.json"
                )
        finally:
            gate.release.set()
        # every span of the job -- recorded by the dead manager, by the
        # successor, and by every hosting node -- shares the one trace id
        assert {s.trace_id for s in spans} == {job_id}
        assert orphan_spans(spans) == []
        adopt = [s for s in spans if s.kind == "adopt"]
        assert len(adopt) == 1 and adopt[0].parent_id == "job"
        assert adopt[0].finished
        # the root job span, begun before the failover, was closed after it
        root = next(s for s in spans if s.span_id == "job")
        assert root.finished and root.end > adopt[0].start
        # attempts from both manager epochs appear in the one exported tree
        exported_ids = {e["args"]["span_id"] for e in exported}
        assert "adopt" in "".join(exported_ids) or any(
            e["args"]["span_id"].startswith("adopt#") for e in exported
        )
