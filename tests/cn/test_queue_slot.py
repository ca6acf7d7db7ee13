"""A hosting's message queue is built the first time something uses it.

Placement holds a slot for the queue (paper section 3: the TaskManager
"sets up a message queue for each Task"); the queue itself is built by
the first delivery, the attempt's first read or the proc pump.  A slot
is unbuilt, built or closed: a hosting that ends first builds nothing,
and a chaos-stalled attempt waits for its slot to close.
"""

import threading
import time

import pytest

from repro.analysis.conc.runtime import InstrumentedLock, verified_locks
from repro.cn import (
    CNAPI,
    ChaosPolicy,
    Cluster,
    ClusterConfig,
    Job,
    TaskRegistry,
    TaskSpec,
    taskmanager,
)
from repro.cn.errors import MessageTimeout
from repro.cn.job import TaskState
from repro.cn.messages import Message
from repro.cn.queues import MessageQueue
from repro.cn.task import Task
from repro.cn.taskmanager import TaskManager


class Echo(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.recv_user(timeout=30.0).payload


class Quick(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


class Probe(Task):
    """Records what its attempt's queue holds, then what a receive finds."""

    seen: list = []
    done = threading.Event()

    def __init__(self, *params):
        pass

    def run(self, ctx):
        try:
            Probe.seen.append(ctx.pending())
            Probe.seen.append(ctx.recv(timeout=0.05).payload)
        except MessageTimeout:
            Probe.seen.append("timeout")
        finally:
            Probe.done.set()


def registry() -> TaskRegistry:
    r = TaskRegistry()
    r.register_class("echo.jar", "t.Echo", Echo)
    r.register_class("quick.jar", "t.Quick", Quick)
    return r


@pytest.fixture
def built(monkeypatch):
    """Every queue a hosting builds, in order."""
    made: list[MessageQueue] = []

    def counting(*args, **kwargs):
        queue = MessageQueue(*args, **kwargs)
        made.append(queue)
        return queue

    monkeypatch.setattr(taskmanager, "MessageQueue", counting)
    return made


def until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


def test_a_message_to_a_placed_unstarted_task_is_received_once_it_starts(built):
    with Cluster(2, registry=registry()) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
        hosting = handle.job.task("e").hosting
        assert hosting.queue is None and built == []  # placed, nothing built
        api.send_message(handle, "e", "early")
        assert built == [hosting.queue] and len(hosting.queue) == 1
        api.start_job(handle)
        assert api.wait(handle, timeout=15) == {"e": "early"}
        assert built == [hosting.queue]  # the attempt read the same queue


ENDINGS = {
    "shutdown": lambda tm, job, hosting: tm.shutdown(),
    "evict": lambda tm, job, hosting: tm.evict(job, "a"),
    "evict_job": lambda tm, job, hosting: tm.evict_job(job.job_id),
    "crash": lambda tm, job, hosting: tm.crash(),
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_an_ended_unbuilt_slot_builds_nothing_and_the_message_stays_ledgered(
    built, ending
):
    tm = TaskManager("n0", ClusterConfig(1))
    job = Job("j1", "client")
    runtime = job.add_task(TaskSpec(name="a", jar="echo.jar", cls="t.Echo"))
    tm.host_task(job, runtime, Echo)
    hosting = runtime.hosting
    ENDINGS[ending](tm, job, hosting)
    assert not runtime.state.terminal
    job.route(Message.user("client", "a", "late"))
    assert built == []
    assert job.has_ledgered("a")
    assert hosting.queue.closed and len(hosting.queue) == 0
    assert job.replay_into("a") == 0 and built == []
    tm.shutdown()


def test_a_delivery_to_a_terminal_task_builds_no_queue(built):
    tm = TaskManager("n0", ClusterConfig(1))
    job = Job("j1", "client")
    runtime = job.add_task(TaskSpec(name="a", jar="echo.jar", cls="t.Echo"))
    tm.host_task(job, runtime, Echo)
    runtime.state = TaskState.COMPLETED
    job.route(Message.user("client", "a", "late"))
    assert built == [] and runtime.hosting.queue is None
    assert not job.has_ledgered("a")
    tm.shutdown()


def test_a_stale_hostings_late_attempt_reads_only_its_own_queue(built):
    config = ClusterConfig(2)
    old, new = TaskManager("n0", config), TaskManager("n1", config)
    job = Job("j1", "client")
    runtime = job.add_task(TaskSpec(name="a", jar="probe.jar", cls="t.Probe"))
    old.host_task(job, runtime, Probe)
    stale = runtime.hosting
    # re-placed while the old node was cut off: it was never evicted
    new.host_task(job, runtime, Probe)
    live = runtime.hosting
    job.route(Message.user("client", "a", "for the live attempt"))
    assert built == [live.queue] and stale.queue is None
    Probe.seen, Probe.done = [], threading.Event()
    try:
        assert old.start_task(job, "a")  # the stale hosting's attempt, late
        assert Probe.done.wait(10)
        assert Probe.seen == [0, "timeout"]
        # it read a queue of its own, not the successor's, which still
        # holds the message
        assert stale.queue is not live.queue and stale.queue in built
        assert len(live.queue) == 1
        until(lambda: not stale.reserved)
    finally:
        old.shutdown()
        new.shutdown()


def running_hosting(handle, name):
    runtime = handle.job.task(name)
    until(lambda: runtime.state is TaskState.RUNNING and runtime.hosting.context)
    return runtime.hosting


def assert_unwound(hosting):
    # the stalled thread left its attempt: its context is let go
    until(lambda: hosting.context is None)
    assert hosting.queue.closed
    assert not any(isinstance(v, threading.Event) for v in vars(hosting).values())


def test_a_stalled_attempt_is_ended_by_job_cancel():
    chaos = ChaosPolicy().stall_task("s", attempt=1)
    with Cluster(2, registry=registry(), chaos=chaos) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="s", jar="quick.jar", cls="t.Quick"))
        api.start_job(handle)
        stalled = running_hosting(handle, "s")
        api.cancel(handle)
        assert api.wait(handle, timeout=15) == {}
        assert handle.job.task("s").state is TaskState.CANCELLED
        assert_unwound(stalled)


def test_a_stalled_attempt_is_ended_by_node_crash():
    chaos = ChaosPolicy().stall_task("s", attempt=1)
    with Cluster(3, registry=registry(), chaos=chaos) as cluster:
        cluster.servers[0].accept_tasks = False  # keep the manager alive
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(
            handle,
            TaskSpec(name="s", jar="quick.jar", cls="t.Quick", max_retries=1),
        )
        api.start_job(handle)
        stalled = running_hosting(handle, "s")
        cluster.kill_node(handle.job.task("s").node_name.split("/")[0])
        assert_unwound(stalled)
        cluster.tick(3)  # the failure detector re-places the task
        assert api.wait(handle, timeout=15) == {"s": "ok"}


def test_a_stalled_attempt_is_ended_by_the_watchdog():
    chaos = ChaosPolicy().stall_task("s", attempt=1)
    with Cluster(2, registry=registry(), chaos=chaos) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(
            handle,
            TaskSpec(
                name="s", jar="quick.jar", cls="t.Quick", max_retries=1, deadline=2.0
            ),
        )
        api.start_job(handle)
        stalled = running_hosting(handle, "s")
        cluster.tick(3)  # virtual time passes the 2 s deadline
        assert api.wait(handle, timeout=15) == {"s": "ok"}
        assert_unwound(stalled)


def test_the_queue_built_on_first_use_is_instrumented_under_verify_locking():
    with verified_locks(), Cluster(2, registry=registry()) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
        hosting = handle.job.task("e").hosting
        assert hosting.queue is None
        api.send_message(handle, "e", "x")
        assert isinstance(hosting.queue._cond._lock, InstrumentedLock)
        api.start_job(handle)
        assert api.wait(handle, timeout=15) == {"e": "x"}
