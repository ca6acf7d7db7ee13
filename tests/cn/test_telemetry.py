"""repro.cn.telemetry: metrics, spans, critical path, exporters, CLI,
and the runtime wiring (cluster, portal) on healthy executions.

Chaos-flavoured span propagation (retries, node kills, manager
failover) lives in test_telemetry_chaos.py.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import urllib.request

import pytest

from repro.cn import CNAPI, Cluster, TaskSpec
from repro.cn.telemetry import chrome_trace, orphan_spans, write_jsonl
from repro.cn.telemetry.cli import main as telemetry_cli
from repro.cn.telemetry.critical_path import critical_path, task_intervals
from repro.cn.telemetry.export import prometheus_text, read_jsonl
from repro.cn.telemetry.metrics import NULL_COUNTER, MetricsRegistry
from repro.cn.telemetry.spans import SpanRecorder

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
        assert [s.span_id for s in spans if s.parent_id == "job"] == ["task:a"]

    def test_orphans_detected(self):
        rec = SpanRecorder()
        rec.begin("t1", "other")  # a parentless span starts the trace
        rec.begin("t1", "task:a", name="a", parent_id="job")  # no "job" span
        assert [s.span_id for s in orphan_spans(rec.spans("t1"))] == ["task:a"]

    def test_a_late_span_does_not_bring_a_retired_trace_back(self):
        rec = SpanRecorder()
        rec.begin("t1", "job", kind="job")
        rec.begin("t1", "task:a", parent_id="job")
        rec.retire("t1")
        late = rec.begin("t1", "attempt:a#2", parent_id="task:a")
        rec.end(late, fenced=True)
        rec.record("t1", "adopt#2", start=0.0, end=1.0, parent_id="job")
        assert rec.trace_ids() == [] and rec.spans("t1") == [] and len(rec) == 0

    def test_round_trip_dict(self):
        rec = SpanRecorder()
        s = rec.begin("t1", "s", name="s", node="node0", k=1)
        rec.add_event(s, "poke", detail="x")
        rec.end(s, state="done")
        from repro.cn.telemetry.spans import Span

        clone = Span.from_dict(s.to_dict())
        assert clone.span_id == "s" and clone.attrs["state"] == "done"
        assert clone.events[0][1] == "poke"  # (ts, name, attrs) tuples

    def test_reading_one_trace_touches_no_other_traces_spans(self):
        """spans(trace_id) / trace_ids() come from the per-trace index: a
        portal reading one job's trace does not slow down with every job
        the recorder has served."""

        class Tripwire(str):
            touched = 0
            __hash__ = str.__hash__

            def __eq__(self, other):
                Tripwire.touched += 1
                return str.__eq__(self, other)

        rec = SpanRecorder()
        for i in range(200):
            trace = Tripwire(f"old{i}")
            rec.begin(trace, "job", kind="job")
            rec.record(trace, "place:t#1", start=0.0, end=1.0, parent_id="job")
        rec.begin("mine", "job", kind="job")
        rec.record("mine", "place:t#1", start=0.0, end=1.0, parent_id="job")
        Tripwire.touched = 0
        mine = rec.spans("mine")
        assert [s.span_id for s in mine] == ["job", "place:t#1"]
        assert rec.spans("never-seen") == []
        assert len(rec.trace_ids()) == 201 and rec.trace_ids()[-1] == "mine"
        assert Tripwire.touched == 0
        # a copy, not the index itself
        mine.clear()
        assert len(rec.spans("mine")) == 2
        assert len(rec.spans()) == len(rec) == 402

    def test_concurrent_recorders_keep_the_index_whole(self):
        """Eight threads record into four traces, half of each span id
        shared, with a short switch interval: every span is created once,
        and the per-trace index agrees with the recording order."""
        import sys
        import threading

        rec = SpanRecorder()

        def work(worker):
            for i in range(300):
                trace = f"t{i % 4}"
                span_id = f"s{i}" if worker % 2 else f"s{i}-{worker}"
                if i % 3:
                    rec.record(trace, span_id, start=0.0, end=1.0, w=worker)
                else:
                    rec.end(rec.begin(trace, span_id, w=worker))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        everything = rec.spans()
        assert len(everything) == len(rec) == 300 + 4 * 300
        assert len({(s.trace_id, s.span_id) for s in everything}) == len(rec)
        assert all(s.end is not None for s in everything)
        assert rec.trace_ids() == sorted(rec.trace_ids(), key=lambda t: int(t[1:]))
        for trace in rec.trace_ids():
            assert rec.spans(trace) == [s for s in everything if s.trace_id == trace]


def _begin_then_end(rec, trace_id, span_id, *, start, end, **kwargs):
    """``record`` as two calls: begin at *start*, then end at *end*."""
    return rec.end(rec.begin(trace_id, span_id, ts=start, **kwargs), ts=end)


def _no_span(rec):
    pass


def _open_span(rec):
    rec.begin("t", "s", name="first", kind="task", node="n0", ts=1.0, a=1)


def _closed_span(rec):
    _open_span(rec)
    rec.end(rec.get("t", "s"), ts=2.0, state="done")


@pytest.mark.parametrize("setup", [_no_span, _open_span, _closed_span])
def test_record_is_begin_then_end(setup):
    """A new span is created closed; an open one keeps its start, name and
    kind, gains only the attrs it lacks, and is closed; a closed one keeps
    its first close.  Either way the recorder's order and size agree."""
    results = []
    for write in (SpanRecorder.record, _begin_then_end):
        rec = SpanRecorder(clock=lambda: 99.0)
        rec.begin("other", "job", ts=0.0)
        rec.begin("t", "job", ts=0.0)  # a parented span joins a started trace
        setup(rec)
        span = write(
            rec, "t", "s", start=5.0, end=7.0, name="second", kind="place",
            parent_id="job", node="n1", a=2, b=3,
        )
        rec.begin("t", "after", ts=8.0)
        assert span is rec.get("t", "s")
        results.append(([s.to_dict() for s in rec.spans()], len(rec)))
    assert results[0] == results[1]


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
        assert by_id["job"].attrs["deps"]["b"] == ("a",)

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


#: families the cluster sets once per node (label ``node``) when the
#: registry is read
NODE_FAMILIES = (
    "cn_node_alive",
    "cn_node_free_memory",
    "cn_node_free_slots",
    "cn_node_hosted_tasks",
    "cn_node_queued_messages",
    "cn_node_heartbeat_misses",
)


def exported_series(text: str) -> dict[str, list[tuple[str, ...]]]:
    """family -> the label names of each of its series, as Prometheus
    text shows them (a histogram's ``le`` buckets folded into one)."""
    kinds: dict[str, str] = {}
    seen: set[tuple[str, frozenset[str]]] = set()
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split()
            kinds[name] = kind
            continue
        sample, _, labels = line.partition("{")
        name = sample.split()[0]
        base = name.rsplit("_", 1)[0]
        if kinds.get(base) == "histogram":
            name = base
        pairs = labels.rpartition("}")[0].split(",")
        seen.add((name, frozenset(p for p in pairs if p and not p.startswith("le="))))
    series: dict[str, list[tuple[str, ...]]] = {}
    for name, pairs in seen:
        keys = tuple(sorted(p.split("=")[0] for p in pairs))
        series.setdefault(name, []).append(keys)
    return {name: sorted(keys) for name, keys in series.items()}


class TestStateFoldedAtRead:
    """What the registry shows of the cluster is set from the runtime's
    own counts when the registry is read; ``Cluster.tick`` only detects
    failures."""

    def test_an_untouched_cluster_exports_every_node_family(self):
        with Cluster(4, registry=basic_registry()) as cluster:
            series = exported_series(cluster.telemetry.prometheus_text())
            metrics = cluster.telemetry.metrics
            for family in NODE_FAMILIES:
                assert series.get(family) == [("node",)] * 4, family
            for name in cluster.node_names:
                assert metrics.value("cn_node_alive", node=name) == 1
            assert metrics.value("cn_cluster_ticks_total") == 0

    def test_tick_makes_no_registry_call(self, monkeypatch):
        with Cluster(4, registry=basic_registry()) as cluster:
            run_echo_job(cluster)
            metrics = cluster.telemetry.metrics
            calls = []

            def spy(name):
                real = getattr(metrics, name)

                def recorded(*args, **kwargs):
                    calls.append(name)
                    return real(*args, **kwargs)

                return recorded

            for name in (
                "counter", "gauge", "histogram", "namespaced", "add_collector",
                "all_metrics", "find", "value", "total", "snapshot", "_get",
                "_collect",
            ):
                monkeypatch.setattr(metrics, name, spy(name))
            cluster.kill_node("node3")  # detection, recovery and all
            cluster.tick(4)
            assert calls == []
            monkeypatch.undo()
            assert metrics.value("cn_cluster_ticks_total") == 4
            assert metrics.value("cn_node_alive", node="node3") == 0

    def test_heartbeat_misses_count_what_the_live_detectors_counted(self):
        with Cluster(4, registry=basic_registry()) as cluster:
            cluster.kill_node("node3")
            cluster.tick(3)
            counted = max(
                server.jobmanager.failure_detector.misses("node3/tm")
                for server in cluster.alive_servers()
            )
            metrics = cluster.telemetry.metrics
            assert counted == 2  # the first tick after the kill spends its beat
            assert metrics.value("cn_node_heartbeat_misses", node="node3") == counted
            assert metrics.value("cn_node_heartbeat_misses", node="node0") == 0

    def test_one_job_and_one_tick_export_the_same_series_as_pushing_did(self):
        with Cluster(4, registry=basic_registry()) as cluster:
            run_echo_job(cluster)
            cluster.tick()
            series = exported_series(cluster.telemetry.prometheus_text())
        per_node = {family: [("node",)] * 4 for family in NODE_FAMILIES}
        assert series == {
            **per_node,
            "cn_journal_fenced_total": [("node",)] * 4,
            "cn_journal_checkpoints_superseded_total": [("node",)] * 4,
            "cn_placements_total": [("manager",)] * 4,
            "cn_jobs_created_total": [("manager",)],
            "cn_messages_routed_total": [("manager",)],
            "cn_task_duration_seconds": series["cn_task_duration_seconds"],
            "cn_task_outcomes_total": [("outcome",)],
            "cn_payload_bytes": [()],
            "cn_payload_unsized_total": [()],
            "cn_placement_seconds": [()],
            "cn_solicit_seconds": [()],
            "cn_bus_dropped_total": [()],
            "cn_bus_listener_errors_total": [()],
            "cn_bus_publishes_total": [()],
            "cn_bus_responder_errors_total": [()],
            "cn_bus_solicitations_total": [()],
            "cn_cluster_ticks_total": [()],
            # the one family the fold adds: ProcTransport counted it, but
            # nothing exported it
            "cn_transport_inline_fallbacks_total": [()],
        }
        # both tasks ran on one node or on two
        assert series["cn_task_duration_seconds"] in ([("node",)], [("node",)] * 2)

    def test_routed_and_created_counts_equal_the_runtime_s_own_after_failover(self):
        from .test_durability import echo_registry, worker_only_nodes

        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.EchoPair", max_retries=2),
            )
            api.start_job(handle)
            api.send_message(handle, "e", "first")
            cluster.kill_node("node0")
            cluster.tick(3)
            assert handle.manager.name == "node1/jm"
            api.send_message(handle, "e", "second")
            assert api.wait(handle, timeout=15)["e"] == ["first", "second"]
            managers = [server.jobmanager for server in cluster.servers]
            jobs = {m.name: m.jobs[handle.job_id] for m in managers if handle.job_id in m.jobs}
            assert len(jobs) == 2  # the dead manager's and the adopter's
            metrics = cluster.telemetry.metrics
            for name, job in jobs.items():
                routed = metrics.value("cn_messages_routed_total", manager=name)
                assert routed == job.messages_routed > 0
            for manager in managers:
                created = metrics.value("cn_jobs_created_total", manager=manager.name)
                assert (created or 0) == manager._job_counter

    def test_reads_racing_job_creation_see_every_job_created_before_them(self):
        # a fold that raised part-way (the registry skips a failing
        # collector) would leave a created job's manager without its series
        with Cluster(2, registry=basic_registry()) as cluster:
            metrics = cluster.telemetry.metrics
            managers = [server.jobmanager for server in cluster.servers]
            created: list[str] = []
            failures: list[str] = []
            done = threading.Event()

            def create(manager):
                for _ in range(60):
                    created.append(manager.create_job("c").job_id)

            def read():
                while not done.is_set():
                    known = list(created)
                    series = {
                        m.labels.get("manager") for m in metrics.all_metrics()
                        if m.name == "cn_messages_routed_total"
                    }
                    missing = {job_id.rsplit("-job", 1)[0] for job_id in known} - series
                    if missing or metrics.total("cn_jobs_created_total") < len(known):
                        failures.append(f"{len(missing)} of {len(known)} missing")

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                reader = threading.Thread(target=read)
                writers = [
                    threading.Thread(target=create, args=(managers[i % 2],))
                    for i in range(4)
                ]
                reader.start()
                for writer in writers:
                    writer.start()
                for writer in writers:
                    writer.join(timeout=30)
                done.set()
                reader.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not reader.is_alive()
            assert not any(writer.is_alive() for writer in writers)
            assert failures == []
            assert metrics.total("cn_jobs_created_total") == len(created) == 240


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
