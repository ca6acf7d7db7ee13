"""Execution-trace tests."""

import pytest

from repro.cn import (
    CNAPI,
    Cluster,
    TaskFailedError,
    TaskSpec,
    collect_trace,
    render_timeline,
)


@pytest.fixture
def finished_handle(cluster):
    api = CNAPI.initialize(cluster)
    handle = api.create_job("traced")
    api.create_task(handle, TaskSpec(name="a", jar="echo.jar", cls="test.Echo"))
    api.create_task(
        handle, TaskSpec(name="b", jar="echo.jar", cls="test.Echo", depends=("a",))
    )
    api.start_job(handle)
    api.wait(handle, timeout=10)
    return handle


class TestCollect:
    def test_lifecycle_summaries(self, finished_handle):
        trace = collect_trace(finished_handle)
        assert set(trace.tasks) == {"a", "b"}
        for task in trace.tasks.values():
            assert task.starts == 1
            assert task.retries == 0
            assert task.final == "completed"
            assert task.node and task.node.endswith("/tm")

    def test_events_logically_ordered(self, finished_handle):
        trace = collect_trace(finished_handle)
        serials = [e.serial for e in trace.events]
        assert serials == sorted(serials)
        kinds = [e.kind for e in trace.events]
        assert kinds[0] == "job-created"
        # a must start before b (dependency)
        a_start = next(i for i, e in enumerate(trace.events) if e.kind == "started" and e.task == "a")
        b_start = next(i for i, e in enumerate(trace.events) if e.kind == "started" and e.task == "b")
        assert a_start < b_start

    def test_consistency_clean(self, finished_handle):
        trace = collect_trace(finished_handle)
        assert trace.consistency_problems() == []

    def test_failure_recorded(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("traced")
        api.create_task(handle, TaskSpec(name="x", jar="boom.jar", cls="test.Boom"))
        api.start_job(handle)
        with pytest.raises(TaskFailedError):
            api.wait(handle, timeout=10)
        trace = collect_trace(handle)
        assert trace.tasks["x"].final == "failed"

    def test_retry_counted(self):
        import itertools
        import threading

        from repro.cn import Task, TaskRegistry

        calls = itertools.count(1)
        lock = threading.Lock()

        class Flaky(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                with lock:
                    n = next(calls)
                if n == 1:
                    raise RuntimeError("first attempt fails")
                return "ok"

        registry = TaskRegistry()
        registry.register_class("f.jar", "t.F", Flaky)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("traced")
            api.create_task(
                handle, TaskSpec(name="f", jar="f.jar", cls="t.F", max_retries=1)
            )
            api.start_job(handle)
            api.wait(handle, timeout=15)
            trace = collect_trace(handle)
        assert trace.tasks["f"].retries == 1
        assert trace.tasks["f"].starts == 2
        assert trace.tasks["f"].final == "completed"
        assert trace.consistency_problems() == []


class TestRender:
    def test_timeline_contents(self, finished_handle):
        text = render_timeline(collect_trace(finished_handle))
        assert "job " in text
        assert "a" in text and "b" in text
        assert "completed" in text
        assert "event sequence:" in text

    def test_timeline_deterministic_order(self, finished_handle):
        trace = collect_trace(finished_handle)
        assert render_timeline(trace) == render_timeline(trace)


class TestEventTimestamps:
    def test_lifecycle_events_carry_monotonic_ts(self, finished_handle):
        trace = collect_trace(finished_handle)
        stamped = [e for e in trace.events if e.kind in ("started", "completed")]
        assert stamped and all(e.ts > 0 for e in stamped)
        # within one task, completion cannot precede the start
        for name, task in trace.tasks.items():
            starts = [e.ts for e in trace.events if e.task == name and e.kind == "started"]
            dones = [e.ts for e in trace.events if e.task == name and e.kind == "completed"]
            if starts and dones:
                assert max(dones) >= min(starts)
