"""repro.cn.telemetry: metrics, spans, critical path, exporters, CLI,
and the runtime wiring (cluster, portal) on healthy executions.

Chaos-flavoured span propagation (retries, node kills, manager
failover) lives in test_telemetry_chaos.py.
"""

from __future__ import annotations

import io
import json
import urllib.request

import pytest

from repro.cn import CNAPI, Cluster, TaskSpec
from repro.cn.telemetry import (
    NULL_COUNTER,
    MetricsRegistry,
    SpanRecorder,
    chrome_trace,
    critical_path,
    orphan_spans,
    prometheus_text,
    read_jsonl,
    span_children,
    task_intervals,
    write_jsonl,
)
from repro.cn.telemetry.cli import main as telemetry_cli

from ..conftest import basic_registry


# -- metrics --------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_and_is_bind_once(self):
        registry = MetricsRegistry()
        c = registry.counter("cn_things_total", kind="a")
        c.inc()
        c.inc(4)
        # same (name, labels) -> same live object
        assert registry.counter("cn_things_total", kind="a") is c
        assert registry.value("cn_things_total", kind="a") == 5
        # distinct labels are distinct series under one family
        registry.counter("cn_things_total", kind="b").inc()
        assert registry.total("cn_things_total") == 6

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("cn_depth", q="x")
        g.set(7)
        g.dec(2)
        g.inc()
        assert registry.value("cn_depth", q="x") == 6

    def test_histogram_quantiles_and_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("cn_lat_seconds")
        for v in range(1, 101):
            h.observe(v / 100.0)
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(50.5)
        assert h.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert h.quantile(0.95) == pytest.approx(0.95, abs=0.05)
        assert h.quantile(0.99) == pytest.approx(0.99, abs=0.05)

    def test_histogram_reservoir_stays_bounded(self):
        registry = MetricsRegistry()
        h = registry.histogram("cn_big_seconds")
        for v in range(5000):
            h.observe(float(v))
        assert h.snapshot()["count"] == 5000
        # the reservoir itself is capped, quantiles still sane
        assert 0 <= h.quantile(0.5) <= 5000

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("cn_x")
        with pytest.raises(ValueError):
            registry.gauge("cn_x")

    def test_null_metrics_are_inert(self):
        NULL_COUNTER.inc(5)
        assert NULL_COUNTER.value == 0


# -- spans ----------------------------------------------------------------------


class TestSpanRecorder:
    def test_begin_is_idempotent_get_or_create(self):
        rec = SpanRecorder()
        a = rec.begin("t1", "job", name="job")
        b = rec.begin("t1", "job", name="job", extra=1)
        assert a is b
        assert a.attrs.get("extra") == 1  # merged, not replaced

    def test_end_first_close_wins_on_timestamp(self):
        rec = SpanRecorder()
        s = rec.begin("t1", "s")
        rec.end(s, state="done")
        first_end = s.end
        rec.end(s, ts=first_end + 99, fenced=True)
        assert s.end == first_end  # the timestamp is immutable
        assert s.attrs == {"state": "done", "fenced": True}  # attrs merge

    def test_tree_helpers(self):
        rec = SpanRecorder()
        rec.begin("t1", "job", name="job")
        rec.begin("t1", "task:a", name="a", parent_id="job")
        rec.begin("t1", "attempt:a#0", name="a#0", parent_id="task:a")
        spans = rec.spans("t1")
        assert orphan_spans(spans) == []
        kids = span_children(spans)
        assert {s.span_id for s in kids["job"]} == {"task:a"}

    def test_orphans_detected(self):
        rec = SpanRecorder()
        rec.begin("t1", "task:a", name="a", parent_id="job")  # no "job" span
        assert [s.span_id for s in orphan_spans(rec.spans("t1"))] == ["task:a"]

    def test_round_trip_dict(self):
        rec = SpanRecorder()
        s = rec.begin("t1", "s", name="s", node="node0", k=1)
        rec.add_event(s, "poke", detail="x")
        rec.end(s, state="done")
        from repro.cn.telemetry import Span

        clone = Span.from_dict(s.to_dict())
        assert clone.span_id == "s" and clone.attrs["state"] == "done"
        assert clone.events[0][1] == "poke"  # (ts, name, attrs) tuples


# -- critical path --------------------------------------------------------------


def _diamond_recorder():
    """split -> (left, right) -> join; right is the long pole."""
    rec = SpanRecorder()
    deps = {"split": [], "left": ["split"], "right": ["split"], "join": ["left", "right"]}
    rec.record("j", "job", name="job", kind="job", start=0.0, end=7.0, deps=deps)
    timings = {"split": (0, 1), "left": (1, 3), "right": (1, 6), "join": (6, 7)}
    for name, (t0, t1) in timings.items():
        rec.begin("j", f"task:{name}", name=name, kind="task", parent_id="job", ts=float(t0))
        rec.record(
            "j", f"attempt:{name}#0", name=f"{name}#0", kind="attempt",
            parent_id=f"task:{name}", node="node0",
            start=float(t0), end=float(t1), task=name,
        )
    return rec


def _diamond_spans():
    return _diamond_recorder().spans("j")


class TestCriticalPath:
    def test_diamond_long_pole(self):
        cp = critical_path(_diamond_spans())
        assert cp.task_names == ["split", "right", "join"]
        assert cp.path_duration == pytest.approx(7.0)
        assert cp.makespan == pytest.approx(7.0)
        assert cp.coverage == pytest.approx(1.0)
        # the short branch has slack equal to the pole difference
        assert cp.slack["left"] == pytest.approx(3.0)
        assert cp.slack["right"] == pytest.approx(0.0)

    def test_fenced_attempts_ignored(self):
        rec = _diamond_recorder()
        rec.record(
            "j", "attempt:left#1", name="left#1", kind="attempt",
            parent_id="task:left", node="node1",
            start=1.0, end=50.0, task="left", fenced=True,
        )
        intervals = task_intervals(rec.spans("j"))
        assert intervals["left"].end == pytest.approx(3.0)
        assert intervals["left"].attempts == 2

    def test_to_dict_is_json_ready(self):
        cp = critical_path(_diamond_spans())
        text = json.dumps(cp.to_dict())
        assert "right" in text


# -- exporters ------------------------------------------------------------------


class TestExporters:
    def test_prometheus_text_families(self):
        registry = MetricsRegistry()
        registry.counter("cn_jobs_total", manager="node0/JM").inc(3)
        registry.histogram("cn_dur_seconds").observe(0.2)
        text = prometheus_text(registry)
        assert "# TYPE cn_jobs_total counter" in text
        assert 'cn_jobs_total{manager="node0/JM"} 3' in text
        assert 'cn_dur_seconds_bucket{le="+Inf"} 1' in text
        assert "cn_dur_seconds_count 1" in text

    def test_chrome_trace_structure(self):
        doc = chrome_trace(_diamond_spans())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        # every complete event carries the span identity for structural checks
        assert all({"trace_id", "span_id"} <= set(e["args"]) for e in complete)
        names = {e["name"] for e in complete}
        assert {"job", "split", "right#0"} <= names
        # all timestamps are relative microseconds >= 0
        assert min(e["ts"] for e in complete) == 0

    def test_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("cn_x_total").inc()
        buf = io.StringIO()
        write_jsonl(buf, spans=_diamond_spans(), registry=registry)
        spans, metrics = read_jsonl(io.StringIO(buf.getvalue()))
        assert {s.span_id for s in spans} == {s.span_id for s in _diamond_spans()}
        assert any(m["name"] == "cn_x_total" for m in metrics)


# -- runtime wiring -------------------------------------------------------------


def run_echo_job(cluster, name="tele"):
    api = CNAPI.initialize(cluster)
    handle = api.create_job(name)
    api.create_task(handle, TaskSpec(name="a", jar="echo.jar", cls="test.Echo",
                                     memory=1, params=("ok",)))
    api.create_task(handle, TaskSpec(name="b", jar="echo.jar", cls="test.Echo",
                                     memory=1, params=("ok2",), depends=("a",)))
    api.start_job(handle)
    api.wait(handle, timeout=30)
    return handle


class TestClusterWiring:
    def test_job_yields_connected_span_tree(self):
        with Cluster(2, registry=basic_registry()) as cluster:
            handle = run_echo_job(cluster)
            t = cluster.telemetry
            spans = t.spans.spans(handle.job_id)
        by_id = {s.span_id: s for s in spans}
        assert orphan_spans(spans) == []
        assert by_id["job"].end is not None
        assert {"task:a", "task:b", "attempt:a#1", "attempt:b#1"} <= set(by_id)
        assert by_id["attempt:a#1"].parent_id == "task:a"
        assert by_id["job"].attrs["deps"]["b"] == ["a"]

    def test_metrics_populated(self):
        with Cluster(2, registry=basic_registry()) as cluster:
            run_echo_job(cluster)
            m = cluster.telemetry.metrics
            assert m.total("cn_jobs_created_total") >= 1
            assert m.total("cn_placements_total") >= 2
            assert m.total("cn_task_outcomes_total") >= 2
            assert m.total("cn_messages_routed_total") >= 1

    def test_critical_path_on_real_job(self):
        with Cluster(2, registry=basic_registry()) as cluster:
            handle = run_echo_job(cluster)
            cp = cluster.telemetry.critical_path(handle.job_id)
        assert cp.task_names == ["a", "b"]
        assert 0 < cp.path_duration <= cp.makespan * 1.001

    def test_telemetry_disabled_is_clean(self):
        with Cluster(2, registry=basic_registry(), telemetry=None) as cluster:
            assert cluster.telemetry is None
            handle = run_echo_job(cluster)
            assert handle.job.telemetry is None

    def test_tick_samples_cluster_gauges(self):
        with Cluster(2, registry=basic_registry()) as cluster:
            cluster.tick()
            m = cluster.telemetry.metrics
            assert m.value("cn_node_alive", node="node0") == 1
            assert m.total("cn_cluster_ticks_total") >= 1


# -- CLI ------------------------------------------------------------------------


@pytest.fixture
def traced_jsonl(tmp_path):
    with Cluster(2, registry=basic_registry()) as cluster:
        handle = run_echo_job(cluster)
        path = tmp_path / "trace.jsonl"
        cluster.telemetry.dump_jsonl(str(path))
    return str(path), handle.job_id


class TestCLI:
    def test_summarize(self, traced_jsonl, capsys):
        path, job_id = traced_jsonl
        out = io.StringIO()
        assert telemetry_cli(["summarize", path], out=out) == 0
        text = out.getvalue()
        assert job_id in text and "connected" in text

    def test_critical_path_command(self, traced_jsonl):
        path, job_id = traced_jsonl
        out = io.StringIO()
        assert telemetry_cli(["critical-path", path, "--trace", job_id], out=out) == 0
        text = out.getvalue()
        assert "a" in text and "b" in text and "critical path" in text.lower()

    def test_export_chrome(self, traced_jsonl, tmp_path):
        path, _ = traced_jsonl
        target = tmp_path / "trace.json"
        out = io.StringIO()
        assert (
            telemetry_cli(
                ["export", path, "--format", "chrome", "-o", str(target)], out=out
            )
            == 0
        )
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]

    def test_module_entrypoint(self, traced_jsonl):
        import subprocess
        import sys

        path, _ = traced_jsonl
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "summarize", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and "trace" in proc.stdout


# -- portal surfaces ------------------------------------------------------------


class TestPortalMetricsEndpoint:
    def test_get_metrics_serves_prometheus_text(self):
        from repro.apps.montecarlo import build_pi_model, register_pi_tasks
        from repro.cn.portal import Portal, PortalHTTPServer
        from repro.cn.registry import TaskRegistry
        from repro.core.xmi import write_graph

        registry = register_pi_tasks(TaskRegistry())
        portal = Portal(
            Cluster(2, registry=registry, memory_per_node=64000)
        )
        server = PortalHTTPServer(portal).start()
        try:
            portal.submit(write_graph(build_pi_model(samples=2000, seed=1, n_workers=2)))
            host, port = server.address
            body = (
                urllib.request.urlopen(f"http://{host}:{port}/metrics").read().decode()
            )
            assert "cn_jobs_created_total" in body
            assert "# TYPE" in body
        finally:
            server.stop()
            portal.close()
            portal.cluster.shutdown()
