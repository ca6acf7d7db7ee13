"""Fault tolerance: task retry with re-placement (CNX <retries> extension)."""

import itertools
import threading

import pytest

from repro.cn import (
    CNAPI,
    Cluster,
    MessageType,
    Task,
    TaskFailedError,
    TaskRegistry,
    TaskSpec,
)
from repro.cn.job import TaskState
from repro.core.cnx import CnxJob, CnxTask, CnxTaskReq, emit, parse
from repro.core.cnx.schema import CnxClient, CnxDocument

from ..conftest import run_client


class FlakyCounter:
    """Shared across task instances: fail the first N attempts."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = itertools.count(1)
        self.lock = threading.Lock()

    def attempt(self) -> int:
        with self.lock:
            return next(self.calls)


_counters: dict[str, FlakyCounter] = {}


def flaky_registry(key: str, failures: int) -> TaskRegistry:
    _counters[key] = FlakyCounter(failures)

    class Flaky(Task):
        def __init__(self, *params):
            pass

        def run(self, ctx):
            attempt = _counters[key].attempt()
            if attempt <= _counters[key].failures:
                raise RuntimeError(f"transient failure on attempt {attempt}")
            return f"succeeded on attempt {attempt}"

    registry = TaskRegistry()
    registry.register_class("flaky.jar", "t.Flaky", Flaky)
    return registry


def flaky_spec(name="f", retries=0, **kwargs):
    return TaskSpec(
        name=name, jar="flaky.jar", cls="t.Flaky", max_retries=retries, **kwargs
    )


class TestRetrySemantics:
    def test_succeeds_within_budget(self):
        registry = flaky_registry("within", failures=2)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=2))
            api.start_job(handle)
            results = api.wait(handle, timeout=15)
        assert results["f"] == "succeeded on attempt 3"
        assert handle.job.task("f").attempts == 3

    def test_fails_when_budget_exhausted(self):
        registry = flaky_registry("exhausted", failures=5)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=1))
            api.start_job(handle)
            with pytest.raises(TaskFailedError, match="transient"):
                api.wait(handle, timeout=15)
        assert handle.job.task("f").state is TaskState.FAILED
        assert handle.job.task("f").attempts == 2  # original + 1 retry

    def test_zero_retries_fails_immediately(self):
        registry = flaky_registry("zero", failures=1)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=0))
            api.start_job(handle)
            with pytest.raises(TaskFailedError):
                api.wait(handle, timeout=15)
        assert handle.job.task("f").attempts == 1

    def test_retry_messages_reach_client(self):
        registry = flaky_registry("messages", failures=1)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=1))
            api.start_job(handle)
            api.wait(handle, timeout=15)
            types = [m.type for m in handle.job.client_queue.drain()]
        assert MessageType.TASK_RETRY in types
        assert MessageType.TASK_COMPLETED in types
        assert MessageType.TASK_FAILED not in types

    def test_dependents_run_after_successful_retry(self):
        registry = flaky_registry("cascade", failures=1)

        class After(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                return "after"

        registry.register_class("after.jar", "t.After", After)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=1))
            api.create_task(
                handle,
                TaskSpec(name="next", jar="after.jar", cls="t.After", depends=("f",)),
            )
            api.start_job(handle)
            results = api.wait(handle, timeout=15)
        assert results["next"] == "after"

    def test_retry_memory_accounting_clean(self):
        registry = flaky_registry("memory", failures=1)
        with Cluster(1, registry=registry, memory_per_node=1200) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(handle, flaky_spec(retries=1, memory=1000))
            api.start_job(handle)
            api.wait(handle, timeout=15)
            tm = cluster.servers[0].taskmanager
            assert tm.free_memory == 1200


class TestRetryThroughCnx:
    def test_retries_roundtrip_cnx(self):
        doc = CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(
                        tasks=[
                            CnxTask(
                                "t", "flaky.jar", "t.Flaky",
                                task_req=CnxTaskReq(retries=3),
                            )
                        ]
                    )
                ],
            )
        )
        text = emit(doc)
        assert "<retries>3</retries>" in text
        reparsed = parse(text)
        assert reparsed.client.jobs[0].tasks[0].task_req.retries == 3
        spec = TaskSpec.from_cnx(reparsed.client.jobs[0].tasks[0])
        assert spec.max_retries == 3

    def test_default_omits_element(self):
        doc = CnxDocument(
            CnxClient("C", jobs=[CnxJob(tasks=[CnxTask("t", "x.jar", "X")])])
        )
        assert "<retries>" not in emit(doc)

    def test_negative_retries_rejected(self):
        from repro.analysis import analyze_cnx

        doc = CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(
                        tasks=[
                            CnxTask("t", "x.jar", "X", task_req=CnxTaskReq(retries=-1))
                        ]
                    )
                ],
            )
        )
        (finding,) = analyze_cnx(doc).errors()
        assert finding.code == "CN205" and "negative retries" in finding.message

    def test_runner_executes_retrying_descriptor(self):
        registry = flaky_registry("runner", failures=2)
        doc = CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(
                        tasks=[
                            CnxTask(
                                "t", "flaky.jar", "t.Flaky",
                                task_req=CnxTaskReq(retries=2),
                            )
                        ]
                    )
                ],
            )
        )
        with Cluster(2, registry=registry) as cluster:
            (results,) = run_client(doc, cluster, timeout=20)
        assert results["t"] == "succeeded on attempt 3"
