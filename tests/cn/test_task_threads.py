"""Task threads and the roster view an attempt is handed.

An attempt runs on a task thread of its node that is parked between
attempts when one is idle, and on a new thread only when none is; the
peers and dependency map every attempt's context gets are derived once
per roster version, not once per attempt.
"""

import sys
import threading
import time

import pytest

from repro.cn import CNAPI, Cluster, Task, TaskRegistry, TaskSpec
from repro.cn.job import Job
from repro.cn.taskmanager import TaskManager


class Noop(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


class ThreadName(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return threading.current_thread().name


class EchoPair(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return [ctx.recv_user(timeout=30.0).payload for _ in range(2)]


def registry() -> TaskRegistry:
    r = TaskRegistry()
    for cls in (Noop, ThreadName, EchoPair):
        r.register_class("t.jar", f"t.{cls.__name__}", cls)
    return r


def spec(name, cls=Noop, **kwargs):
    return TaskSpec(name=name, jar="t.jar", cls=f"t.{cls.__name__}", memory=1, **kwargs)


def fan(workers=150):
    """split -> *workers* -> join, the shape of a wide composed model."""
    names = [f"w{i:03d}" for i in range(workers)]
    return [
        spec("split"),
        *(spec(name, depends=("split",)) for name in names),
        spec("join", depends=tuple(names)),
    ]


def wide_cluster():
    return Cluster(4, registry=registry(), memory_per_node=10**6, slots_per_node=1024)


def run_job(cluster, specs, **job_kwargs):
    api = CNAPI.initialize(cluster)
    handle = api.create_job("client", **job_kwargs)
    api.create_tasks(handle, specs)
    api.start_job(handle)
    return handle, api.wait(handle, timeout=60)


@pytest.fixture
def task_thread_starts(monkeypatch):
    """How many task threads were started since the fixture was set up;
    clear it to count from a later point."""
    started = []
    real = threading.Thread.start

    def start(self):
        if self.name.startswith("cn-task-"):
            started.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_a_warm_cluster_starts_few_threads_for_its_second_job(task_thread_starts):
    with wide_cluster() as cluster:
        run_job(cluster, fan())
        task_thread_starts.clear()
        _, results = run_job(cluster, fan())
    assert len(results) == 152
    # one thread per attempt would be 152
    assert len(task_thread_starts) <= 20


def test_context_setup_reads_the_roster_once_per_version(monkeypatch):
    reads = [0]

    def getattribute(self, name):
        if name == "depends":
            reads[0] += 1
        return object.__getattribute__(self, name)

    monkeypatch.setattr(TaskSpec, "__getattribute__", getattribute)
    with wide_cluster() as cluster:
        _, results = run_job(cluster, fan())
    assert len(results) == 152
    # a dependency map rebuilt per attempt reads 152 * 152 = 23 104
    assert reads[0] <= 8 * 152


def test_attempts_on_one_roster_version_share_one_view():
    job = Job("j", "client")
    for s in fan(3):
        job.add_task(s)
    view = job.roster()
    assert job.roster() is view
    assert view == (
        ["split", "w000", "w001", "w002", "join"],
        {
            "split": (),
            "w000": ("split",),
            "w001": ("split",),
            "w002": ("split",),
            "join": ("w000", "w001", "w002"),
        },
    )
    job.add_task(spec("late", depends=("join",)))
    grown = job.roster()
    assert grown is not view and grown[0][-1] == "late"
    assert grown[1]["late"] == ("join",)


def test_no_task_thread_outlives_shutdown():
    before = set(threading.enumerate())

    def task_threads():
        return [
            t
            for t in set(threading.enumerate()) - before
            if t.name.startswith("cn-task-") and t.is_alive()
        ]

    cluster = wide_cluster().start()
    try:
        run_job(cluster, fan(40))
        # let every attempt run to its end (its thread parked or gone)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(
            not t.name.startswith("cn-task-parked-") for t in task_threads()
        ):
            time.sleep(0.01)
    finally:
        cluster.shutdown()
    assert task_threads() == []


def test_concurrent_jobs_hand_each_attempt_to_one_thread_and_park_every_thread():
    """Four clients run fans on one cluster with a short switch interval.
    A lost hand-off leaves a job unfinished or an attempt run twice; a
    lost park leaves a thread that shutdown cannot wake."""
    before = set(threading.enumerate())
    handles, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        cluster = wide_cluster().start()
        try:

            def client():
                try:
                    for _ in range(3):
                        handles.append(run_job(cluster, fan(30)))
                except Exception as exc:  # noqa: BLE001 -- reported below
                    errors.append(exc)

            clients = [threading.Thread(target=client) for _ in range(4)]
            for c in clients:
                c.start()
            for c in clients:
                c.join(60)
            assert not any(c.is_alive() for c in clients)
        finally:
            cluster.shutdown()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(handles) == 12
    for handle, results in handles:
        assert set(results.values()) == {"ok"} and len(results) == 32
        assert {handle.job.task(name).attempts for name in results} == {1}
    for thread in set(threading.enumerate()) - before:
        if thread.name.startswith("cn-task-"):
            thread.join(10)
            assert not thread.is_alive(), thread.name


def test_a_revived_node_runs_new_attempts_on_named_threads():
    with Cluster(2, registry=registry(), failure_k=2) as cluster:
        cluster.servers[0].accept_tasks = False  # every task lands on node1
        handle, results = run_job(cluster, [spec("a", ThreadName)])
        assert results == {"a": f"cn-task-{handle.job_id}-a"}
        cluster.kill_node("node1")
        cluster.tick(3)
        cluster.revive_node("node1")
        cluster.tick(1)
        handle, results = run_job(cluster, [spec("b", ThreadName), spec("c", ThreadName)])
        assert results == {
            "b": f"cn-task-{handle.job_id}-b",
            "c": f"cn-task-{handle.job_id}-c",
        }
        assert {handle.job.task(n).node_name for n in "bc"} == {"node1/tm"}


def test_an_exception_escaping_an_attempt_reaches_excepthook(monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    real = Job.attempt_ended

    def attempt_ended(self, runtime, *args, **kwargs):
        if runtime.name == "boom":
            raise RuntimeError("escaped the attempt")
        return real(self, runtime, *args, **kwargs)

    monkeypatch.setattr(Job, "attempt_ended", attempt_ended)
    with Cluster(1, registry=registry()) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, spec("boom"))
        api.start_job(handle)
        deadline = time.monotonic() + 10
        while not raised and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [str(args.exc_value) for args in raised] == ["escaped the attempt"]
        assert raised[0].thread.name == f"cn-task-{handle.job_id}-boom"
        # the node still runs attempts afterwards
        _, results = run_job(cluster, [spec("after")])
        assert results == {"after": "ok"}


def test_an_attempt_beginning_after_its_node_died_reads_its_own_queue(monkeypatch):
    """The attempt placed on a node that dies before the attempt begins
    must not read the queue its task was re-placed with: that one's
    messages belong to the live attempt."""
    gate, late_attempt_over = threading.Event(), threading.Event()
    real = TaskManager._run_task

    def run_task(self, hosted, on_terminal):
        if hosted.epoch > 1:
            return real(self, hosted, on_terminal)
        gate.wait(10)
        try:
            return real(self, hosted, on_terminal)
        finally:
            late_attempt_over.set()

    monkeypatch.setattr(TaskManager, "_run_task", run_task)
    with Cluster(3, registry=registry(), failure_k=2) as cluster:
        cluster.servers[0].accept_tasks = False
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client", requirements={"prefer": "node0"})
        api.create_task(handle, spec("e", EchoPair, max_retries=2))
        api.start_job(handle)
        api.send_message(handle, "e", "first")
        assert handle.job.task("e").node_name == "node1/tm"
        cluster.kill_node("node1")
        cluster.tick(3)  # declared dead, e re-placed with a fresh queue
        assert handle.job.task("e").node_name == "node2/tm"
        gate.set()
        # its own queue was closed by the crash: the receive fails at once
        assert late_attempt_over.wait(5)
        api.send_message(handle, "e", "second")
        assert api.wait(handle, timeout=10) == {"e": ["first", "second"]}
