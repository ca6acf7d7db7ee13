"""Chaos layer + failure detection/recovery: unit and end-to-end tests.

Everything here is deterministic: virtual clock (no wall-time sleeps in
the detection path), scripted or seed-keyed faults, explicit
``Cluster.tick`` calls instead of background pumpers.
"""

import threading

import pytest

from repro.cn import (
    CNAPI,
    ChaosPolicy,
    Cluster,
    MessageType,
    Task,
    TaskRegistry,
    TaskSpec,
    VirtualClock,
)
from repro.cn.chaos import ExponentialBackoff, InjectedFault
from repro.cn.config import SCHEDULERS
from repro.cn.errors import JobTimeoutError, ShutdownError
from repro.cn.job import TaskState
from repro.cn.jobmanager import FailureDetector
from repro.cn.messages import Message
from repro.cn.queues import MessageQueue
from repro.core.cnx import CnxJob, CnxTask, CnxTaskReq
from repro.core.cnx.schema import CnxClient, CnxDocument

from ..conftest import Hosting, client_messages, run_client


class Echo(Task):
    """Returns the payload of the first USER message it receives."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.recv_user(timeout=30.0).payload


class EchoPair(Task):
    """Returns the payloads of the first two USER messages it receives."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        first = ctx.recv_user(timeout=30.0).payload
        second = ctx.recv_user(timeout=30.0).payload
        return [first, second]


class Quick(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


def echo_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("echo.jar", "t.Echo", Echo)
    registry.register_class("echo.jar", "t.EchoPair", EchoPair)
    registry.register_class("quick.jar", "t.Quick", Quick)
    return registry


def worker_only_nodes(cluster: Cluster) -> None:
    """Keep node0 as the (manager-hosting) node that never hosts tasks,
    so tests can kill worker nodes without losing the JobManager."""
    cluster.servers[0].accept_tasks = False


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestExponentialBackoff:
    def test_growth_and_cap(self):
        b = ExponentialBackoff(base=0.01, factor=2.0, cap=0.05, jitter=0.0)
        assert [b.delay(a) for a in range(1, 6)] == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_bounded_and_deterministic(self):
        b = ExponentialBackoff(base=0.01, factor=2.0, cap=1.0, jitter=0.2, seed=7)
        d1 = b.delay(3, key="taskA")
        d2 = ExponentialBackoff(
            base=0.01, factor=2.0, cap=1.0, jitter=0.2, seed=7
        ).delay(3, key="taskA")
        assert d1 == d2
        assert 0.04 * 0.8 <= d1 <= 0.04 * 1.2

    def test_distinct_tasks_desynchronize(self):
        b = ExponentialBackoff(jitter=0.1, seed=1)
        assert b.delay(2, key="a") != b.delay(2, key="b")


class TestFailureDetector:
    def test_declares_dead_after_k_misses(self):
        fd = FailureDetector(k_misses=3)
        fd.watch("n1")
        fd.beat("n1")
        assert fd.tick() == []  # beat covered this period
        assert fd.tick() == []  # miss 1
        assert fd.tick() == []  # miss 2
        assert fd.tick() == ["n1"]  # miss 3 -> dead
        assert fd.dead_nodes() == {"n1"}
        assert fd.tick() == []  # dead nodes reported once

    def test_beat_resets_misses(self):
        fd = FailureDetector(k_misses=2)
        fd.watch("n1")
        fd.tick()
        fd.tick()  # miss 1 (first tick consumed the initial grace beat)
        fd.beat("n1")
        assert fd.tick() == []  # beat covered it again
        assert fd.misses("n1") == 0

    def test_resurrection_on_late_beat(self):
        fd = FailureDetector(k_misses=1)
        fd.watch("n1")
        fd.tick()
        assert fd.tick() == ["n1"]
        assert fd.beat("n1") is True  # false positive corrected
        assert fd.dead_nodes() == set()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            FailureDetector(k_misses=0)


class TestChaosPolicyDeterminism:
    def test_rate_decisions_identical_across_instances(self):
        a = ChaosPolicy(seed=42, queue_drop_rate=0.3, queue_delay_rate=0.2)
        b = ChaosPolicy(seed=42, queue_drop_rate=0.3, queue_delay_rate=0.2)
        for i in range(50):
            assert a.queue_fate("q", i) == b.queue_fate("q", i)
        assert a.fault_summary() == b.fault_summary()

    def test_different_seed_changes_fault_set(self):
        a = ChaosPolicy(seed=1, queue_drop_rate=0.5)
        b = ChaosPolicy(seed=2, queue_drop_rate=0.5)
        decisions_a = [a.queue_fate("q", i) for i in range(40)]
        decisions_b = [b.queue_fate("q", i) for i in range(40)]
        assert decisions_a != decisions_b

    def test_scripted_faults_fire_exactly_once(self):
        chaos = ChaosPolicy().crash_task("w", attempt=1)
        assert chaos.enabled
        assert chaos.should_crash_task("j", "w", 1) is True
        assert chaos.should_crash_task("j", "w", 1) is False  # consumed
        assert chaos.should_crash_task("j", "w", 2) is False

    def test_disabled_when_nothing_configured(self):
        assert ChaosPolicy().enabled is False
        assert ChaosPolicy(queue_drop_rate=0.1).enabled is True
        assert ChaosPolicy().stall_task("x").enabled is True

    def test_node_crash_scripting_requires_one_trigger(self):
        with pytest.raises(TypeError):
            ChaosPolicy().crash_node("n0")
        with pytest.raises(TypeError):
            ChaosPolicy().crash_node("n0", after_starts=1, at_tick=1)

    def test_at_tick_node_crashes_consumed(self):
        # a timed kill is the driver's (Cluster.kill_node at its tick), not
        # a table on the policy that Cluster.tick reads back
        with pytest.raises(TypeError, match="at_tick"):
            ChaosPolicy().crash_node("n0", at_tick=3)
        assert not hasattr(ChaosPolicy(), "nodes_to_crash")

    def test_fault_log_records_structured_events(self):
        chaos = ChaosPolicy().crash_task("w")
        chaos.should_crash_task("job1", "w", 1)
        [entry] = chaos.log_dicts()
        assert entry["kind"] == "task-crash" and entry["target"] == "w"
        assert entry["detail"]["scripted"] is True
        with pytest.raises(AttributeError):
            chaos.clear_log()


class TestChaoticQueues:
    def test_drop_rate_one_loses_everything(self):
        q = MessageQueue(owner="j/t", chaos=ChaosPolicy(queue_drop_rate=1.0))
        q.put(Message.user("a", "t", 1))
        assert len(q) == 0

    def test_delayed_messages_reordered_not_lost(self):
        chaos = ChaosPolicy(seed=0, queue_delay_rate=0.4)
        q = MessageQueue(owner="j/t", chaos=chaos)
        for i in range(30):
            q.put(Message.user("a", "t", i))
        drained = q.drain()
        # delays reorder but never lose messages
        assert sorted(m.payload for m in drained) == list(range(30))
        delays = [r for r in chaos.fault_summary() if r[0] == "queue-delay"]
        assert delays  # rate 0.4 over 30 puts fires for this seed
        assert [m.payload for m in drained] != list(range(30))

    def test_disabled_chaos_is_transparent(self):
        q = MessageQueue(owner="j/t", chaos=ChaosPolicy())
        for i in range(5):
            q.put(Message.user("a", "t", i))
        assert [m.payload for m in q.drain()] == [0, 1, 2, 3, 4]


class TestChaoticBroadcast:
    """Fan-out routing must not collapse chaos fates: each recipient's
    drop/delay decision is rolled independently by its own queue, exactly
    as if the messages had been routed one at a time."""

    def make_job(self, chaos, workers=("a", "b", "c")):
        from repro.cn import Job

        job = Job("j", "client")
        for name in workers:
            runtime = job.add_task(TaskSpec(name=name, jar="x.jar", cls="p.T"))
            runtime.hosting = Hosting(MessageQueue(owner=f"j/{name}", chaos=chaos))
            runtime.state = TaskState.CREATED
        return job

    def test_fates_within_one_fan_out_are_independent_and_seeded(self):
        rounds = 40
        chaos = ChaosPolicy(seed=11, queue_drop_rate=0.3)
        job = self.make_job(chaos)
        payloads = []
        for i in range(rounds):
            payload = ("row", i)
            payloads.append(payload)
            job.route_many(
                [Message.user("s", name, payload) for name in ("a", "b", "c")]
            )
        # a twin-seeded policy predicts each queue's fates independently:
        # recipient `a` sees puts 1..rounds on ITS queue, `b` on its own, ...
        oracle = ChaosPolicy(seed=11, queue_drop_rate=0.3)
        for name in ("a", "b", "c"):
            expected = [
                payloads[i - 1]
                for i in range(1, rounds + 1)
                if oracle.queue_fate(f"j/{name}", i) == "deliver"
            ]
            got = [m.payload for m in job.tasks[name].hosting.queue.drain()]
            assert got == expected, f"fates for {name!r} diverged"
        fates = {
            tuple(
                oracle2.queue_fate(f"j/{name}", i) for i in range(1, rounds + 1)
            )
            for name in ("a", "b", "c")
            for oracle2 in [ChaosPolicy(seed=11, queue_drop_rate=0.3)]
        }
        assert len(fates) > 1  # the queues genuinely diverged from each other

    def test_ledger_keeps_every_fanned_out_message_despite_drops(self):
        chaos = ChaosPolicy(seed=3, queue_drop_rate=1.0)
        job = self.make_job(chaos)
        job.route_many(
            [Message.user("s", name, "x") for name in ("a", "b", "c")]
        )
        # every queue dropped its copy, but at-least-once still holds:
        # the ledger has all three for replay into a fresh queue
        for name in ("a", "b", "c"):
            assert len(job.tasks[name].hosting.queue) == 0
            assert job.has_ledgered(name)
        job.tasks["a"].hosting = Hosting(MessageQueue(owner="j2/a"))  # chaos-free replay
        assert job.replay_into("a") == 1


class TestNodeKillRecovery:
    def test_task_recovers_on_another_node_with_replay(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.EchoPair", max_retries=2),
            )
            api.start_job(handle)
            # first half of the conversation goes into the delivery ledger;
            # whether attempt 1 consumed it or not, the restarted attempt
            # must see it again via replay
            api.send_message(handle, "e", "first")
            placed_on = handle.job.task("e").node_name
            assert placed_on == "node1/tm"
            cluster.kill_node("node1")
            cluster.tick(3)  # heartbeats missed -> declared dead -> recovery
            # the ledger still holds what the re-placed attempt was replayed
            [replayed] = handle.job.ledger()["e"]
            assert replayed.payload == "first"
            api.send_message(handle, "e", "second")
            results = api.wait(handle, timeout=15)
            assert results["e"] == ["first", "second"]
            assert handle.job.task("e").node_name == "node2/tm"
            jm = cluster.servers[0].jobmanager
            assert "node1/tm" in jm.failure_detector.dead_nodes()
            types = [m.type for m in handle.job.client_queue.drain()]
            assert MessageType.NODE_FAILED in types

    def test_revived_node_is_placeable_again(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            cluster.kill_node("node1")
            cluster.tick(3)
            assert cluster.dead_nodes() == {"node1"}
            cluster.revive_node("node1")
            cluster.tick(1)  # heartbeat resurrects it in the detectors
            jm = cluster.servers[0].jobmanager
            assert jm.failure_detector.dead_nodes() == set()
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            assert api.wait(handle, timeout=10)["q"] == "ok"
            assert handle.job.task("q").node_name == "node1/tm"

    def test_partition_false_positive_then_heal(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            cluster.partition(["node0"], ["node1"])
            cluster.tick(3)  # node1's beats cannot cross the partition
            jm = cluster.servers[0].jobmanager
            assert "node1/tm" in jm.failure_detector.dead_nodes()
            cluster.heal_partition()
            cluster.tick(1)
            assert jm.failure_detector.dead_nodes() == set()

    def test_chaos_scripted_node_crash_at_tick(self):
        # the driver kills at its tick and records the kill; ticking fires
        # nothing the policy scheduled
        with pytest.raises(TypeError, match="at_tick"):
            ChaosPolicy().crash_node("node1", at_tick=2)
        chaos = ChaosPolicy()
        with Cluster(2, registry=echo_registry(), chaos=chaos) as cluster:
            cluster.tick(1)
            assert cluster.dead_nodes() == set()
            chaos.note_kill("node1", 2)
            cluster.kill_node("node1")
            cluster.tick(1)
            assert cluster.dead_nodes() == {"node1"}
            assert chaos.fault_summary() == [("node-crash", "node", "node1")]


class TestInjectedTaskCrash:
    def test_scripted_crash_retried_to_success(self):
        chaos = ChaosPolicy().crash_task("q", attempt=1)
        with Cluster(2, registry=echo_registry(), chaos=chaos) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(
                handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick", max_retries=1)
            )
            api.start_job(handle)
            assert api.wait(handle, timeout=15)["q"] == "ok"
            assert handle.job.task("q").attempts == 2
            assert chaos.fault_summary() == [("task-crash", "task", "q")]

    def test_injected_fault_is_a_normal_failure_without_budget(self):
        from repro.cn import TaskFailedError

        chaos = ChaosPolicy().crash_task("q", attempt=1)
        with Cluster(2, registry=echo_registry(), chaos=chaos) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            with pytest.raises(TaskFailedError, match="chaos"):
                api.wait(handle, timeout=15)

    def test_injected_fault_class(self):
        assert issubclass(InjectedFault, RuntimeError)


class TestDeadlineWatchdog:
    def test_stalled_task_times_out_into_retry(self):
        chaos = ChaosPolicy().stall_task("s", attempt=1)
        with Cluster(2, registry=echo_registry(), chaos=chaos) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(
                handle,
                TaskSpec(
                    name="s", jar="quick.jar", cls="t.Quick",
                    max_retries=1, deadline=2.0,
                ),
            )
            api.start_job(handle)
            cluster.tick(3)  # virtual time passes the 2s deadline
            assert api.wait(handle, timeout=15)["s"] == "ok"
            assert handle.job.task("s").attempts == 2
            types = [m.type for m in handle.job.client_queue.drain()]
            assert MessageType.TASK_TIMEOUT in types
            assert MessageType.TASK_RETRY in types

    def test_no_deadline_means_no_watchdog(self):
        with Cluster(1, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            cluster.tick(10)
            assert handle.job.task("e").state is TaskState.RUNNING
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=10)["e"] == "done"


class TestBackoffIntegration:
    def test_recovery_sleeps_the_backoff_schedule(self):
        backoff = ExponentialBackoff(base=0.001, factor=2.0, cap=1.0, jitter=0.0)
        chaos = ChaosPolicy().crash_task("q", attempt=1).crash_task("q", attempt=2)
        with Cluster(2, registry=echo_registry(), chaos=chaos) as cluster:
            slept: list[float] = []
            for server in cluster.servers:
                server.jobmanager.backoff = backoff
                server.jobmanager._sleeper = slept.append
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(
                handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick", max_retries=2)
            )
            api.start_job(handle)
            assert api.wait(handle, timeout=15)["q"] == "ok"
        # attempt 1 failed -> slept delay(2); attempt 2 failed -> delay(3)
        assert slept == [backoff.delay(2, key="q"), backoff.delay(3, key="q")]


class TestJobTimeoutDiagnostics:
    def test_timeout_error_carries_states(self):
        with Cluster(1, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            with pytest.raises(JobTimeoutError) as excinfo:
                api.wait(handle, timeout=0.1)
            assert excinfo.value.states == {"e": "RUNNING"}
            assert "e=RUNNING" in str(excinfo.value)
            api.cancel(handle)


class TestUndeliverableLog:
    def test_status_to_closed_queue_is_recorded(self):
        with Cluster(1, registry=echo_registry()) as cluster:
            jm = cluster.servers[0].jobmanager
            job = jm.create_job("client")
            job.client_queue.close()
            payload = jm.query_status(job)  # must not raise
            assert payload["job_id"] == job.job_id
        assert [e["type"] for e in job.undeliverable] == [MessageType.STATUS]


class TestGracefulDegradation:
    def degradable_doc(self) -> CnxDocument:
        return CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(
                        tasks=[
                            CnxTask(
                                "w", "quick.jar", "t.Quick",
                                dynamic=True, multiplicity="1..*",
                                arguments="[(i,) for i in range(n)]",
                                task_req=CnxTaskReq(memory=1000),
                            )
                        ]
                    )
                ],
            )
        )

    def run_degradable(self, n, memory_per_node):
        """The dynamic fan of *n* under each scheduler (they cut its one
        create_tasks call differently): per scheduler, the job's results
        and the client's notifications."""
        outcomes = []
        for scheduler in SCHEDULERS:
            with Cluster(
                2,
                registry=echo_registry(),
                memory_per_node=memory_per_node,
                scheduler=scheduler,
            ) as cluster:
                (results,) = run_client(self.degradable_doc(), cluster, {"n": n}, 20)
                outcomes.append((results, client_messages(cluster)))
        return outcomes

    def test_dynamic_job_shrinks_to_capacity(self):
        for results, messages in self.run_degradable(10, 2000):
            # 10 workers x 1000 memory > 4000 budget: shrunk to 4
            assert len(results) == 4
            degraded = [m for m in messages if m.type == MessageType.JOB_DEGRADED]
            assert len(degraded) == 1
            assert degraded[0].payload["requested"] == 10
            assert degraded[0].payload["granted"] == 4

    def test_no_degradation_when_it_fits(self):
        for results, messages in self.run_degradable(3, 8000):
            assert len(results) == 3
            assert not [m for m in messages if m.type == MessageType.JOB_DEGRADED]


class TestEpochFencing:
    def test_zombie_outcome_discarded_after_crash(self):
        release = threading.Event()

        class Gated(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                release.wait(10)
                return "zombie"

        registry = TaskRegistry()
        registry.register_class("g.jar", "t.G", Gated)
        with Cluster(2, registry=registry) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="g", jar="g.jar", cls="t.G"))
            api.start_job(handle)
            assert handle.job.task("g").state is TaskState.RUNNING
            cluster.kill_node("node1")
            # node is dead but nothing re-placed yet (no ticks): the gated
            # thread finishing now is a zombie and must not publish
            release.set()
            import time

            deadline = time.time() + 5
            while handle.job.task("g").state is TaskState.RUNNING:
                if time.time() > deadline:
                    break
                time.sleep(0.01)
            assert handle.job.task("g").result is None
