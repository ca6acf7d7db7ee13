"""Overload protection: queue edges, budget propagation,
admission control, and the portal's hardened HTTP front door."""

import threading
import time

import pytest

from repro.cn import (
    CNAPI,
    AdmissionController,
    Cluster,
    MessageType,
    Task,
    TaskFailedError,
    TaskRegistry,
    TaskSpec,
    VirtualClock,
    replay_job,
)
from repro.cn.admission import TokenBucket
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


# -- admission control ---------------------------------------------------------


class FakeCluster:
    """Duck-typed saturation source for controller unit tests."""

    def __init__(self, queued=0, free=1000, total=1000):
        self.queued = queued
        self.free = free
        self.total = total
        self.degrade_factor = 1.0
        self.clock = None

    def total_queued_messages(self):
        return self.queued

    def total_free_memory(self):
        return self.free

    def total_memory(self):
        return self.total


class TestTokenBucket:
    def test_burst_then_refusal_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0) == (True, 0.0)
        assert bucket.try_acquire(0.0) == (True, 0.0)
        acquired, retry_after = bucket.try_acquire(0.0)
        assert not acquired
        assert retry_after == pytest.approx(0.5)
        acquired, _ = bucket.try_acquire(0.6)  # 1.2 tokens refilled
        assert acquired

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        bucket.try_acquire(1000.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)


class TestAdmissionController:
    def controller(self, cluster=None, **kwargs):
        cluster = cluster or FakeCluster()
        clock = [0.0]
        kwargs.setdefault("now", lambda: clock[0])
        ctl = AdmissionController(cluster, **kwargs)
        return ctl, clock

    def test_quota_rejection_is_per_tenant(self):
        ctl, _ = self.controller(rate=1.0, burst=2.0)
        assert ctl.admit("a").decision == "admit"
        assert ctl.admit("a").decision == "admit"
        refused = ctl.admit("a")
        assert refused.decision == "reject-quota"
        assert refused.retry_after > 0
        assert not refused.admitted
        # tenant b has its own bucket
        assert ctl.admit("b").admitted

    def test_in_flight_cap_and_release(self):
        ctl, _ = self.controller(rate=100.0, burst=100.0, max_in_flight=1)
        assert ctl.admit("a").admitted
        assert ctl.in_flight("a") == 1
        assert ctl.admit("a").decision == "reject-quota"
        ctl.release("a")
        assert ctl.in_flight("a") == 0
        assert ctl.admit("a").admitted

    def test_saturation_combines_queues_and_memory(self):
        cluster = FakeCluster(queued=256, free=500, total=1000)
        ctl, _ = self.controller(cluster, queue_headroom=512)
        assert ctl.saturation() == pytest.approx(0.5)
        cluster.free = 100  # memory pressure 0.9 dominates
        assert ctl.saturation() == pytest.approx(0.9)

    def test_hard_saturation_sheds(self):
        cluster = FakeCluster(queued=1000)
        ctl, _ = self.controller(cluster, queue_headroom=512, retry_after=2.5)
        decision = ctl.admit("a")
        assert decision.decision == "reject-saturated"
        assert decision.retry_after == 2.5
        assert ctl.counts["reject-saturated"] == 1

    def test_soft_saturation_degrades_before_shedding(self):
        cluster = FakeCluster(free=200, total=1000)  # memory pressure 0.8
        ctl, _ = self.controller(
            cluster,
            soft_saturation=0.7,
            hard_saturation=0.9,
            min_degrade_factor=0.2,
        )
        decision = ctl.admit("a")
        assert decision.decision == "admit-degraded"
        assert 0.2 < decision.degrade_factor < 1.0
        # the knob the generated client scales its expansion budget by
        assert cluster.degrade_factor == decision.degrade_factor

    def test_healthy_cluster_restores_degrade_factor(self):
        cluster = FakeCluster(free=200, total=1000)
        ctl, _ = self.controller(cluster)
        ctl.admit("a")
        assert cluster.degrade_factor < 1.0
        cluster.free = 1000
        ctl.admit("a")
        assert cluster.degrade_factor == 1.0


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
        """The portal's admit-degraded decision reaches the generated client."""
        for scheduler in SCHEDULERS:
            with Cluster(
                2,
                registry=overload_registry(),
                memory_per_node=2000,
                scheduler=scheduler,
            ) as cluster:
                cluster.degrade_factor = 0.5  # as the admission controller would
                submission = Portal(cluster).submit(self.degradable_xmi(), {"n": 10})
                messages = client_messages(cluster)
            assert submission.status == "done", submission.error
            # 4000 free x 0.5 = 2000 budget -> 2 of 10 workers
            assert len(submission.results[0]) == 2
            degraded = [m for m in messages if m.type == MessageType.JOB_DEGRADED]
            assert degraded and degraded[0].payload["granted"] == 2
