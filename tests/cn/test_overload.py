"""Queue edges, deadline-budget propagation, virtual-clock waits, and
a dynamic job narrowed to the cluster's free memory."""

import threading
import time

import pytest

from repro.cn import (
    CNAPI,
    Cluster,
    MessageType,
    Task,
    TaskFailedError,
    TaskRegistry,
    TaskSpec,
    VirtualClock,
    replay_job,
)
from repro.cn.config import SCHEDULERS
from repro.cn.errors import BudgetExhausted, JobTimeoutError, ShutdownError
from repro.cn.messages import Message
from repro.cn.portal import Portal
from repro.cn.queues import MessageQueue
from repro.core.uml import ActivityBuilder
from repro.core.xmi import write_graph

from ..conftest import client_messages


def user(payload, recipient="t"):
    return Message.user("s", recipient, payload)


# -- test tasks ----------------------------------------------------------------

_gates: dict[str, threading.Event] = {}


class Gate(Task):
    """Holds without consuming its queue until its named gate opens."""

    def __init__(self, *params):
        self.key = str(params[0]) if params else "default"

    def run(self, ctx):
        _gates[self.key].wait(15)
        return "ok"


class FirstDeadline(Task):
    """Returns the deadline stamped on the first user message it gets."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.recv_user(timeout=10).deadline


class Quick(Task):
    def __init__(self, *params):
        self.params = params

    def run(self, ctx):
        return "ok"


def overload_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("gate.jar", "t.Gate", Gate)
    registry.register_class("dl.jar", "t.FirstDeadline", FirstDeadline)
    registry.register_class("quick.jar", "t.Quick", Quick)
    return registry


def gated(key: str) -> str:
    _gates[key] = threading.Event()
    return key


# -- queue edges ---------------------------------------------------------------


class TestQueueEdges:
    def test_get_matching_racing_close(self):
        q = MessageQueue("t")
        q.put(user("noise"))
        outcome = []

        def matcher():
            try:
                outcome.append(q.get_matching(lambda m: m.payload == "never", 5))
            except ShutdownError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=matcher)
        thread.start()
        time.sleep(0.05)  # let the matcher stash "noise" and park
        q.close()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ShutdownError)
        # the stashed non-match survives the close for draining
        assert [m.payload for m in q.drain()] == ["noise"]

    def test_put_many_notes_watermark_once_per_batch(self):
        q = MessageQueue("t")
        assert q.put_many([user(i) for i in range(4)]) == 4
        assert len(q) == 4

    def test_put_many_partial_on_close(self):
        q = MessageQueue("t")
        batch = [user(i) for i in range(3)]
        q.close()
        assert q.put_many(batch) == 0


# -- deadline / budget propagation ---------------------------------------------


class TestBudgetPropagation:
    def test_reply_inherits_deadline(self):
        request = Message(
            MessageType.START_TASK, "client", "jm", payload="t", deadline=42.0
        )
        assert request.reply(MessageType.TASK_STARTED, "jm").deadline == 42.0

    def test_job_budget_stamps_routed_messages(self):
        with Cluster(1, registry=overload_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c", budget=50.0)
            assert handle.job.deadline == cluster.clock.now() + 50.0
            api.create_task(
                handle, TaskSpec(name="d", jar="dl.jar", cls="t.FirstDeadline")
            )
            api.start_job(handle)
            api.send_message(handle, "d", "probe")
            results = api.wait(handle, timeout=15)
        assert results["d"] == pytest.approx(50.0)

    def test_exhausted_budget_drops_attempt(self):
        with Cluster(1, registry=overload_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c", budget=1.0)
            api.create_task(
                handle,
                TaskSpec(name="q", jar="quick.jar", cls="t.Quick", max_retries=3),
            )
            cluster.clock.advance(5.0)  # budget spent before the attempt
            api.start_job(handle)
            with pytest.raises(TaskFailedError, match="budget"):
                api.wait(handle, timeout=15)
            # dropped, not retried: doomed work never executes
            assert handle.job.task("q").attempts == 1
            assert cluster.servers[0].taskmanager.budget_drops == 1

    def test_budget_caps_watchdog_deadline(self):
        key = gated("budget-watchdog")
        with Cluster(1, registry=overload_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c", budget=3.0)
            # no per-task deadline: the watchdog derives one from the
            # remaining job budget
            api.create_task(
                handle, TaskSpec(name="g", jar="gate.jar", cls="t.Gate", params=(key,))
            )
            api.start_job(handle)
            cluster.tick(5)  # virtual time passes the 3s budget
            types = [m.type for m in handle.job.client_queue.drain()]
            assert MessageType.TASK_TIMEOUT in types
            _gates[key].set()

    def test_budget_survives_journal_replay(self):
        with Cluster(1, registry=overload_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c", budget=9.0)
            records = cluster.servers[0].journal.records(handle.job_id)
            assert replay_job(handle.job_id, records).deadline == 9.0

    def test_budget_exhausted_error_shape(self):
        exc = BudgetExhausted("t1", deadline=5.0, now=7.5)
        assert "t1" in str(exc)
        assert exc.deadline == 5.0


class TestVirtualClockWait:
    def test_wait_timeout_runs_on_virtual_time(self):
        key = gated("virtual-wait")
        clock = VirtualClock(drive_timeouts=True)
        with Cluster(1, registry=overload_registry(), clock=clock) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("c")
            api.create_task(
                handle, TaskSpec(name="g", jar="gate.jar", cls="t.Gate", params=(key,))
            )
            api.start_job(handle)
            outcome = []

            def waiter():
                try:
                    # 1000 *virtual* seconds: on wall time this would
                    # park the test forever
                    api.wait(handle, timeout=1000.0)
                except JobTimeoutError as exc:
                    outcome.append(exc)

            thread = threading.Thread(target=waiter)
            thread.start()
            cluster.tick(1001)
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert len(outcome) == 1
            _gates[key].set()


# -- narrowing to free memory --------------------------------------------------


class TestDegradeFactorScalesExpansion:
    @staticmethod
    def degradable_xmi() -> str:
        b = ActivityBuilder("Degradable")
        worker = b.dynamic_task(
            "w", jar="quick.jar", cls="t.Quick", memory=1000,
            multiplicity="1..*", argument_expr="[(i,) for i in range(n)]",
        )
        b.chain(b.initial(), worker, b.final())
        return write_graph(b.build())

    def test_lowered_factor_admits_narrower_jobs(self):
        """A cluster short of memory runs a dynamic job narrower."""
        for scheduler in SCHEDULERS:
            with Cluster(
                2,
                registry=overload_registry(),
                memory_per_node=1000,
                scheduler=scheduler,
            ) as cluster:
                submission = Portal(cluster).submit(self.degradable_xmi(), {"n": 10})
                messages = client_messages(cluster)
            assert submission.status == "done", submission.error
            # 2000 free -> 2 of 10 workers
            assert len(submission.results[0]) == 2
            degraded = [m for m in messages if m.type == MessageType.JOB_DEGRADED]
            assert degraded and degraded[0].payload["granted"] == 2
