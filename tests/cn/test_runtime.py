"""End-to-end runtime tests: DAG execution, messaging, failures,
cancellation, dynamic expansion, the generated client."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_cnx
from repro.analysis.passes import parse_multiplicity
from repro.cn import (
    CNAPI,
    Cluster,
    JobError,
    MessageType,
    RunModel,
    Task,
    TaskFailedError,
    TaskSpec,
)
from repro.cn.client import evaluate_arguments, expand_dynamic_tasks
from repro.cn.config import SCHEDULERS
from repro.cn.errors import NoWillingTaskManager, TaskLoadError
from repro.cn.job import TaskState
from repro.cn.messages import Message
from repro.cn.portal import Portal
from repro.cn.scheduler import PlacementRule
from repro.cn.taskmanager import TaskManager
from repro.core.cnx import CnxJob, CnxTask
from repro.core.cnx.schema import CnxClient, CnxDocument
from repro.core.uml import ActivityBuilder
from repro.core.xmi import write_graph

from ..analysis.test_passes import OUTSIDE_THE_GRAMMAR
from ..conftest import basic_registry, client_messages, run_client


def echo_spec(name, depends=(), **kwargs):
    return TaskSpec(name=name, jar="echo.jar", cls="test.Echo", depends=tuple(depends), **kwargs)


class TestDagExecution:
    def test_linear_chain_order(self, cluster):
        order = []
        lock = threading.Lock()

        class Tracker(Task):
            def __init__(self, label):
                self.label = label

            def run(self, ctx):
                with lock:
                    order.append(self.label)
                return self.label

        cluster.registry.register_class("track.jar", "t.Tracker", Tracker)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        for i, deps in ((0, ()), (1, ("t0",)), (2, ("t1",))):
            api.create_task(
                handle,
                TaskSpec(
                    name=f"t{i}", jar="track.jar", cls="t.Tracker",
                    depends=deps, params=(f"t{i}",),
                ),
            )
        api.start_job(handle)
        results = api.wait(handle, timeout=10)
        assert order == ["t0", "t1", "t2"]
        assert results == {"t0": "t0", "t1": "t1", "t2": "t2"}

    def test_diamond(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("a"))
        api.create_task(handle, echo_spec("b", depends=["a"]))
        api.create_task(handle, echo_spec("c", depends=["a"]))
        api.create_task(handle, echo_spec("d", depends=["b", "c"]))
        api.start_job(handle)
        results = api.wait(handle, timeout=10)
        assert set(results) == {"a", "b", "c", "d"}

    def test_wide_fanout(self, big_cluster):
        api = CNAPI.initialize(big_cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("root", memory=100))
        for i in range(30):
            api.create_task(handle, echo_spec(f"w{i}", depends=["root"], memory=100))
        api.start_job(handle)
        results = api.wait(handle, timeout=30)
        assert len(results) == 31

    def test_task_states_progress(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("a"))
        assert api.states(handle) == {"a": "CREATED"}
        api.start_job(handle)
        api.wait(handle, timeout=10)
        assert api.states(handle) == {"a": "COMPLETED"}

    def test_start_job_without_tasks(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        with pytest.raises(Exception):
            api.start_job(handle)


class TestMessaging:
    def test_client_receives_lifecycle_messages(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("a"))
        api.start_job(handle)
        api.wait(handle, timeout=10)
        types = [m.type for m in handle.job.client_queue.drain()]
        assert MessageType.JOB_CREATED in types
        assert MessageType.TASK_CREATED in types
        assert MessageType.TASK_STARTED in types
        assert MessageType.TASK_COMPLETED in types

    def test_client_to_task_message(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(
            handle, TaskSpec(name="s", jar="sleepy.jar", cls="test.Sleepy")
        )
        api.start_task(handle, "s")
        api.send_message(handle, "s", {"wake": True})
        results = api.wait(handle, timeout=10)
        assert results["s"] == {"wake": True}

    def test_task_to_client_message(self, cluster):
        class Reporter(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                ctx.send("client", "progress-50%")
                return "done"

        cluster.registry.register_class("rep.jar", "t.Reporter", Reporter)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="r", jar="rep.jar", cls="t.Reporter"))
        api.start_job(handle)
        user_msg = api.get_user_message(handle, timeout=5)
        assert user_msg.payload == "progress-50%"
        api.wait(handle, timeout=10)

    def test_intertask_send_unknown_peer_raises(self, cluster):
        failures = []

        class BadSender(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                ctx.send("nobody", "x")

        cluster.registry.register_class("bad.jar", "t.BadSender", BadSender)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="b", jar="bad.jar", cls="t.BadSender"))
        api.start_job(handle)
        with pytest.raises(TaskFailedError):
            api.wait(handle, timeout=10)

    def test_broadcast(self, cluster):
        class Caster(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                ctx.broadcast("ping")
                return "cast"

        class Listener(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                return ctx.recv_user(timeout=10).payload

        cluster.registry.register_class("cast.jar", "t.Caster", Caster)
        cluster.registry.register_class("listen.jar", "t.Listener", Listener)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="c", jar="cast.jar", cls="t.Caster"))
        for i in range(3):
            api.create_task(
                handle,
                TaskSpec(name=f"l{i}", jar="listen.jar", cls="t.Listener", depends=("c",)),
            )
        api.start_job(handle)
        results = api.wait(handle, timeout=10)
        assert [results[f"l{i}"] for i in range(3)] == ["ping", "ping", "ping"]

    def test_dag_introspection(self, cluster):
        class Introspect(Task):
            def __init__(self):
                pass

            def run(self, ctx):
                return (sorted(ctx.my_dependencies()), sorted(ctx.my_dependents()))

        cluster.registry.register_class("intro.jar", "t.I", Introspect)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="a", jar="intro.jar", cls="t.I"))
        api.create_task(handle, TaskSpec(name="b", jar="intro.jar", cls="t.I", depends=("a",)))
        api.create_task(handle, TaskSpec(name="c", jar="intro.jar", cls="t.I", depends=("a", "b")))
        api.start_job(handle)
        results = api.wait(handle, timeout=10)
        assert results["a"] == ([], ["b", "c"])
        assert results["b"] == (["a"], ["c"])
        assert results["c"] == (["a", "b"], [])


class TestFailureHandling:
    def test_task_failure_fails_job(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="x", jar="boom.jar", cls="test.Boom"))
        api.start_job(handle)
        with pytest.raises(TaskFailedError, match="boom"):
            api.wait(handle, timeout=10)
        assert handle.job.task("x").state is TaskState.FAILED
        assert "RuntimeError" in (handle.job.task("x").error or "")

    def test_failure_does_not_cascade_to_dependents(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="x", jar="boom.jar", cls="test.Boom"))
        api.create_task(handle, echo_spec("after", depends=["x"]))
        api.start_job(handle)
        with pytest.raises(TaskFailedError):
            api.wait(handle, timeout=10)
        assert handle.job.task("after").state is TaskState.CREATED

    def test_failed_message_sent_to_client(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="x", jar="boom.jar", cls="test.Boom"))
        api.start_job(handle)
        with pytest.raises(TaskFailedError):
            api.wait(handle, timeout=10)
        types = [m.type for m in handle.job.client_queue.drain()]
        assert MessageType.TASK_FAILED in types

    def test_bad_constructor_params(self, cluster):
        class Strict(Task):
            def __init__(self):  # takes no params
                pass

            def run(self, ctx):
                return 1

        cluster.registry.register_class("strict.jar", "t.S", Strict)
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(
            handle,
            TaskSpec(name="s", jar="strict.jar", cls="t.S", params=(1, 2, 3)),
        )
        api.start_job(handle)
        with pytest.raises(TaskFailedError, match="construct"):
            api.wait(handle, timeout=10)

    def test_wait_timeout(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="s", jar="sleepy.jar", cls="test.Sleepy"))
        api.start_job(handle)
        with pytest.raises(JobError, match="did not finish"):
            api.wait(handle, timeout=0.2)
        api.send_message(handle, "s", "wake")
        api.wait(handle, timeout=10)

    def test_cancel_blocked_task(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="s", jar="sleepy.jar", cls="test.Sleepy"))
        api.start_job(handle)
        time.sleep(0.1)
        api.cancel(handle)
        deadline = time.time() + 5
        while not handle.job.finished and time.time() < deadline:
            time.sleep(0.02)
        assert handle.job.task("s").state is TaskState.CANCELLED


class TestDynamicExpansion:
    def doc(self, arguments, multiplicity="0..*"):
        return CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(
                        tasks=[
                            CnxTask("root", "echo.jar", "test.Echo"),
                            CnxTask(
                                "w", "echo.jar", "test.Echo",
                                depends=["root"], dynamic=True,
                                multiplicity=multiplicity, arguments=arguments,
                            ),
                            CnxTask("sink", "echo.jar", "test.Echo", depends=["w"]),
                        ]
                    )
                ],
            )
        )

    def test_evaluate_arguments_shapes(self):
        assert evaluate_arguments("[(i,) for i in range(3)]", {}) == [(0,), (1,), (2,)]
        assert evaluate_arguments("range(2)", {}) == [(0,), (1,)]
        assert evaluate_arguments("[[1, 2], [3, 4]]", {}) == [(1, 2), (3, 4)]
        assert evaluate_arguments("[(i,) for i in range(n)]", {"n": 2}) == [(0,), (1,)]
        assert evaluate_arguments(
            "[(i,) for i in range(1, n_workers + 1)]", {"n_workers": 2}
        ) == [(1,), (2,)]
        assert evaluate_arguments(repr([(0,), (1,)]), {}) == [(0,), (1,)]

    def test_evaluate_arguments_rejects_bad(self):
        with pytest.raises(JobError):
            evaluate_arguments("1 +", {})
        with pytest.raises(JobError):
            evaluate_arguments("42", {})

    @pytest.mark.parametrize("expression", OUTSIDE_THE_GRAMMAR)
    def test_evaluate_arguments_refuses_before_eval(self, expression, monkeypatch):
        import repro.cn.client

        monkeypatch.setattr(repro.cn.client, "eval", None, raising=False)
        with pytest.raises(JobError, match="outside the arguments grammar"):
            evaluate_arguments(expression, {})

    def test_evaluate_arguments_no_builtins(self):
        with pytest.raises(JobError):
            evaluate_arguments("__import__('os').getcwd()", {})

    def test_expansion_rewires_dependencies(self):
        specs = expand_dynamic_tasks(
            self.doc("[(i,) for i in range(1, 4)]").client.jobs[0], {}
        )
        by_name = {s.name: s for s in specs}
        assert set(by_name) == {"root", "w1", "w2", "w3", "sink"}
        assert by_name["w2"].depends == ("root",)
        assert by_name["w2"].params == (2,)
        assert set(by_name["sink"].depends) == {"w1", "w2", "w3"}

    def test_multiplicity_enforced(self):
        with pytest.raises(JobError, match="multiplicity"):
            expand_dynamic_tasks(self.doc("[]", multiplicity="1..*").client.jobs[0], {})
        with pytest.raises(JobError, match="multiplicity"):
            expand_dynamic_tasks(
                self.doc("[(1,), (2,)]", multiplicity="3..5").client.jobs[0], {}
            )

    def test_exact_multiplicity(self):
        specs = expand_dynamic_tasks(
            self.doc("[(1,), (2,)]", multiplicity="2").client.jobs[0], {}
        )
        assert len([s for s in specs if s.name.startswith("w")]) == 2

    @pytest.mark.parametrize("spec", ["a..b", "1..2..3", "-1", "1.. 3", "two"])
    def test_malformed_multiplicity_is_a_job_error(self, spec):
        # what DynamicsPass reports as CN303 must not surface as a bare
        # ValueError from int() when the expansion is called directly
        job = self.doc("[(1,)]", multiplicity=spec).client.jobs[0]
        for budget in (None, 10**6):
            with pytest.raises(JobError, match="malformed multiplicity"):
                expand_dynamic_tasks(job, {}, memory_budget=budget)

    @given(
        spec=st.one_of(
            st.sampled_from(["", "*", "0..*", " 2 ", "3..1"]),
            st.builds(str, st.integers(0, 6)),
            st.builds("{}..{}".format, st.integers(0, 6), st.integers(0, 6)),
            st.builds("{}..*".format, st.integers(0, 6)),
        ),
        count=st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_expansion_agrees_with_parse_multiplicity(self, spec, count):
        """One multiplicity parser: on every spec the analyzer accepts,
        the expansion admits exactly the counts inside the bounds
        ``parse_multiplicity`` reads, and the degradation floor is its
        lower bound (never below 1)."""
        arguments = repr([(i,) for i in range(count)])
        doc = self.doc(arguments, multiplicity=spec)
        job = doc.client.jobs[0]
        if {"CN303", "CN304"} & analyze_cnx(doc).codes():
            return
        low, high = parse_multiplicity(spec)
        if count < low or (high is not None and count > high):
            with pytest.raises(JobError, match="violates multiplicity"):
                expand_dynamic_tasks(job, {})
            return
        workers = [s for s in expand_dynamic_tasks(job, {}) if s.name != "root"]
        assert len(workers) == count + 1  # the instances and the sink
        # a budget that fits nothing sheds down to the floor, no further
        shed = expand_dynamic_tasks(job, {}, memory_budget=0)
        assert len(shed) - 2 == min(count, max(1, low))

    def test_a_portal_submission_narrows_to_free_memory(self, registry):
        """A cluster short of memory runs a dynamic job narrower."""
        b = ActivityBuilder("Narrowed")
        worker = b.dynamic_task(
            "w", jar="echo.jar", cls="test.Echo", memory=1000,
            multiplicity="1..*", argument_expr="[(i,) for i in range(n)]",
        )
        b.chain(b.initial(), worker, b.final())
        xmi = write_graph(b.build())
        for scheduler in SCHEDULERS:
            with Cluster(
                2, registry=registry, memory_per_node=1000, scheduler=scheduler
            ) as cluster:
                submission = Portal(cluster).submit(xmi, {"n": 10})
                messages = client_messages(cluster)
            assert submission.status == "done", submission.error
            # 2000 free -> 2 of 10 workers
            assert len(submission.results[0]) == 2
            degraded = [m for m in messages if m.type == MessageType.JOB_DEGRADED]
            assert degraded and degraded[0].payload["granted"] == 2

    def test_runner_executes_expanded_job(self, registry):
        for scheduler in SCHEDULERS:
            with Cluster(4, registry=registry, scheduler=scheduler) as cluster:
                (results,) = run_client(
                    self.doc("[(i,) for i in range(1, n + 1)]"), cluster, {"n": 4}, 15
                )
            assert set(results) == {"root", "w1", "w2", "w3", "w4", "sink"}

    def test_a_dependent_listed_before_its_dynamic_task_runs(self, cluster):
        """Document order is not dependency order: the sink comes first."""
        doc = self.doc("[(i,) for i in range(3)]")
        tasks = doc.client.jobs[0].tasks
        tasks.insert(0, tasks.pop())
        (results,) = run_client(doc, cluster, timeout=15)
        assert set(results) == {"sink", "root", "w1", "w2", "w3"}


class TestGeneratedClient:
    def test_multi_job_client(self, cluster):
        doc = CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(name="one", tasks=[CnxTask("a", "echo.jar", "test.Echo")]),
                    CnxJob(name="two", tasks=[CnxTask("b", "echo.jar", "test.Echo")]),
                ],
            )
        )
        job_results = run_client(doc, cluster, timeout=15)
        assert len(job_results) == 2
        assert "a" in job_results[0]
        assert "b" in job_results[1]

    def test_collect_messages(self, cluster):
        doc = CnxDocument(
            CnxClient("C", jobs=[CnxJob(tasks=[CnxTask("a", "echo.jar", "test.Echo")])])
        )
        run_client(doc, cluster, timeout=15)
        messages = client_messages(cluster)
        assert any(m.type == MessageType.TASK_COMPLETED for m in messages)


class TestStatusQueries:
    def test_query_status_shape(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("a"))
        api.create_task(handle, echo_spec("b", depends=["a"]))
        status = api.query_status(handle)
        assert status["job_id"] == handle.job_id
        assert status["tasks"]["a"]["state"] == "CREATED"
        assert status["tasks"]["a"]["node"].endswith("/tm")
        assert status["finished"] is False

    def test_status_message_delivered(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("a"))
        api.query_status(handle)
        message = handle.job.client_queue.get_matching(
            lambda m: m.type == MessageType.STATUS, timeout=2
        )
        assert message.payload["tasks"]["a"]["state"] == "CREATED"

    def test_status_after_completion(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, echo_spec("a"))
        api.start_job(handle)
        api.wait(handle, timeout=10)
        status = api.query_status(handle)
        assert status["finished"] is True
        assert status["failed"] is False
        assert status["tasks"]["a"]["state"] == "COMPLETED"

    def test_status_reports_failure(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="x", jar="boom.jar", cls="test.Boom"))
        api.start_job(handle)
        with pytest.raises(TaskFailedError):
            api.wait(handle, timeout=10)
        status = api.query_status(handle)
        assert status["failed"] is True
        assert status["tasks"]["x"]["state"] == "FAILED"


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestHostingEnds:
    """Whatever ends a hosting -- completion, cancellation, failure of a
    sibling, eviction -- the node gets back exactly what host_task took."""

    MEMORY = 8000

    def make(self, scheduler):
        return Cluster(
            2, registry=basic_registry(), memory_per_node=self.MEMORY,
            scheduler=scheduler,
        )

    def assert_idle(self, cluster):
        rule = PlacementRule("j", "echo.jar", 0, RunModel.RUN_AS_THREAD_IN_TM, ("t",))
        for server in cluster.servers:
            tm = server.taskmanager
            assert tm._hosted == {}, server.name
            assert tm.free_memory == self.MEMORY, server.name
            assert tm.free_slots == tm.slots, server.name
            assert tm.hosted_count() == 0
            assert tm.compute_bid(rule).load == 0

    def test_cancelling_placed_jobs_gives_the_memory_back(self, scheduler):
        # at the parent each round leaked its 8000: the third could not place
        with self.make(scheduler) as cluster:
            api = CNAPI.initialize(cluster)
            for _ in range(30):
                handle = api.create_job("client")
                api.create_tasks(
                    handle, [echo_spec(f"t{i}", memory=1000) for i in range(8)]
                )
                assert cluster.total_free_memory() == 2 * self.MEMORY - 8000
                api.cancel(handle)
                self.assert_idle(cluster)

    def test_finished_jobs_are_forgotten(self, scheduler):
        with self.make(scheduler) as cluster:
            api = CNAPI.initialize(cluster)
            for _ in range(3):
                handle = api.create_job("client")
                api.create_tasks(
                    handle,
                    [echo_spec("a", memory=500), echo_spec("b", ["a"], memory=500)],
                )
                api.start_job(handle)
                api.wait(handle, timeout=10)
                self.assert_idle(cluster)

    def test_cancelled_job_with_running_and_unstarted_tasks(self, scheduler):
        with self.make(scheduler) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_tasks(
                handle,
                [
                    TaskSpec(name="s", jar="sleepy.jar", cls="test.Sleepy", memory=700),
                    echo_spec("after", ["s"], memory=300),
                ],
            )
            api.start_job(handle)
            api.cancel(handle)
            deadline = time.time() + 5
            while (
                handle.job.task("s").state is not TaskState.CANCELLED
                or cluster.total_free_memory() != 2 * self.MEMORY
            ) and time.time() < deadline:
                time.sleep(0.01)
            assert handle.job.task("s").state is TaskState.CANCELLED
            self.assert_idle(cluster)
            # ...and the job is over: "after" never started and ended with it
            assert api.wait(handle, timeout=5) == {}
            assert handle.job.task("after").state is TaskState.CANCELLED

    @pytest.mark.parametrize("roster", ["placed", "empty", "unplaceable"])
    def test_a_cancelled_job_finishes_and_frees_its_job_slot(self, scheduler, roster):
        # at the parent a task that never started stayed CREATED (or
        # PENDING), so the job never finished: after 2 x 16 cancels no
        # manager offered, and a wait timed out
        with self.make(scheduler) as cluster:
            api = CNAPI.initialize(cluster)
            for _ in range(40):
                handle = api.create_job("client")
                if roster == "placed":
                    api.create_tasks(
                        handle,
                        [echo_spec("a", memory=1000), echo_spec("b", ["a"], memory=1000)],
                    )
                elif roster == "unplaceable":
                    with pytest.raises(NoWillingTaskManager):
                        api.create_task(handle, echo_spec("a", memory=2 * self.MEMORY))
                handle.job.client_queue.drain()
                api.cancel(handle)
                assert api.wait(handle, timeout=2) == {}
                assert set(handle.job.states().values()) <= {"CANCELLED"}
                told = handle.job.client_queue.drain()
                assert [m.type for m in told] == [MessageType.TASK_CANCELLED] * len(
                    handle.job.tasks
                )
                # one journal batch: the tasks' ends, then the job's
                records = handle.manager.journal.records(handle.job_id)
                ends = [r.kind for r in records[-1 - len(handle.job.tasks) :]]
                assert ends == ["task-state"] * len(handle.job.tasks) + ["job-finished"]
                assert len({r.seq for r in records}) == len(records)
                # a hosting that never started is let go, and a late
                # message to its task is dropped as to any ended one
                assert all(rt.hosting is None for rt in handle.job.tasks.values())
                for name in handle.job.tasks:
                    handle.job.route(Message.user("client", name, "late"))
            self.assert_idle(cluster)

    def test_a_batch_with_an_unresolvable_class_changes_nothing(self, scheduler):
        # at the parent "a" was hosted, CREATED and journaled, never
        # announced, and "b" stayed PENDING
        with self.make(scheduler) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            with pytest.raises(TaskLoadError):
                api.create_tasks(
                    handle,
                    [
                        echo_spec("a", memory=1000),
                        TaskSpec(name="b", jar="zz.jar", cls="zz.Z", memory=1000),
                    ],
                )
            assert handle.job.task_names() == []
            records = handle.manager.journal.records(handle.job_id)
            assert [r.kind for r in records] == ["job-created"]
            self.assert_idle(cluster)
            # the same names go through once every class resolves
            api.create_tasks(handle, [echo_spec("a"), echo_spec("b", ["a"])])
            api.start_job(handle)
            assert set(api.wait(handle, timeout=10)) == {"a", "b"}

    def test_failed_job_releases_dependents_that_never_started(self, scheduler):
        with self.make(scheduler) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_tasks(
                handle,
                [
                    TaskSpec(name="x", jar="boom.jar", cls="test.Boom", memory=100),
                    echo_spec("after", ["x"], memory=900),
                ],
            )
            api.start_job(handle)
            with pytest.raises(TaskFailedError):
                api.wait(handle, timeout=10)
            assert handle.job.task("after").state is TaskState.CREATED
            self.assert_idle(cluster)

    def test_late_outcome_of_a_dropped_hosting_is_fenced(self, scheduler, monkeypatch):
        release, attempt_over = threading.Event(), threading.Event()
        run_task = TaskManager._run_task

        def run_then_signal(tm, hosted, on_terminal):
            try:
                run_task(tm, hosted, on_terminal)
            finally:
                attempt_over.set()

        monkeypatch.setattr(TaskManager, "_run_task", run_then_signal)

        class Gated(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                release.wait(10)
                return "zombie"

        try:
            with self.make(scheduler) as cluster:
                cluster.registry.register_class("g.jar", "t.G", Gated)
                api = CNAPI.initialize(cluster)
                handle = api.create_job("client")
                api.create_task(
                    handle, TaskSpec(name="g", jar="g.jar", cls="t.G", memory=400)
                )
                api.start_job(handle)
                runtime = handle.job.task("g")
                tm = cluster.server(runtime.node_name.split("/")[0]).taskmanager
                tm.evict(handle.job, "g")
                # its thread still runs, so it still holds what it reserved
                assert tm.free_memory == self.MEMORY - 400
                assert tm.hosted_count() == 1
                release.set()
                assert attempt_over.wait(5)
                assert runtime.state is TaskState.RUNNING and runtime.result is None
                self.assert_idle(cluster)
        finally:
            release.set()
