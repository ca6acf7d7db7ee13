"""What happens to a task does not depend on who is listening.

Every client notification goes through ``Job.notify``; with the client's
conduit closed it lands on the job's ``undeliverable`` record and the
caller carries on.  Each case here runs under ``transport="inproc"`` and
``"proc"``; task classes live at module level so a forked worker can
import them by name.
"""

import multiprocessing

import pytest

from repro.cn import CNAPI, Cluster, Task, TaskRegistry, TaskSpec
from repro.cn.config import SCHEDULERS
from repro.cn.messages import MessageType

TRANSPORTS = [
    "inproc",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="proc transport requires the fork start method",
        ),
    ),
]


class Named(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.task_name


class SaveThenRestore(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        self.checkpoint({"step": 3}, tag="t3")
        return self.restore()


def registry() -> TaskRegistry:
    reg = TaskRegistry()
    reg.register_class("c.jar", "t.Named", Named)
    reg.register_class("c.jar", "t.SaveThenRestore", SaveThenRestore)
    return reg


def spec(name, cls="t.Named", depends=()):
    return TaskSpec(name=name, jar="c.jar", cls=cls, depends=tuple(depends))


def dropped(job) -> list[str]:
    return [entry["type"] for entry in job.undeliverable]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestClosedConduit:
    def test_a_chain_runs_to_completion_with_nobody_listening(self, transport):
        for scheduler in SCHEDULERS:
            with Cluster(
                2, registry=registry(), transport=transport, scheduler=scheduler
            ) as cluster:
                api = CNAPI.initialize(cluster)
                handle = api.create_job("client")
                api.create_tasks(handle, [spec("a"), spec("b", depends=["a"])])
                handle.job.client_queue.close()
                api.start_job(handle)
                # at the parent commit `a` stayed RUNNING with its slot held
                # and no thread: TASK_STARTED raised between claim and start
                assert api.wait(handle, timeout=10) == {"a": "a", "b": "b"}
                assert handle.job.results() == {"a": "a", "b": "b"}
                for server in cluster.servers:
                    tm = server.taskmanager
                    assert tm.free_slots == tm.slots
                    assert tm.free_memory == tm.memory_capacity
                    assert tm.hosted_count() == 0
                assert dropped(handle.job) == [
                    MessageType.TASK_STARTED,
                    MessageType.TASK_COMPLETED,
                    MessageType.TASK_STARTED,
                    MessageType.TASK_COMPLETED,
                ]
                assert all(
                    entry["recipient"] == "client"
                    and "ShutdownError" in entry["error"]
                    for entry in handle.job.undeliverable
                )
                metrics = cluster.telemetry.metrics
                assert metrics.total("cn_undeliverable_total") == 4

    def test_create_tasks_places_and_returns(self, transport):
        for scheduler in SCHEDULERS:
            with Cluster(
                2, registry=registry(), transport=transport, scheduler=scheduler
            ) as cluster:
                api = CNAPI.initialize(cluster)
                handle = api.create_job("client")
                handle.job.client_queue.close()
                # no ShutdownError after the hostings exist
                api.create_tasks(handle, [spec("a"), spec("b", depends=["a"])])
                assert handle.job.states() == {"a": "CREATED", "b": "CREATED"}
                assert dropped(handle.job) == [MessageType.TASK_CREATED] * 2
                api.start_job(handle)
                assert api.wait(handle, timeout=10) == {"a": "a", "b": "b"}

    def test_restore_gives_the_state_back(self, transport):
        with Cluster(1, registry=registry(), transport=transport) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, spec("s", cls="t.SaveThenRestore"))
            handle.job.client_queue.close()
            api.start_job(handle)
            assert api.wait(handle, timeout=10) == {"s": {"step": 3}}
            assert MessageType.TASK_RESUMED in dropped(handle.job)
