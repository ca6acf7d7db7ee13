"""An attempt is the same thing on both sides of the execution seam.

``TaskContext.wire_fields`` is the one list of what crosses to a worker
process and ``run_attempt`` the one "construct, bind, run"; every test
here runs the same task under ``transport="inproc"`` and ``"proc"`` and
expects the same answer.  Task classes live at module level so a forked
worker can import them by name.
"""

import multiprocessing
import threading

import pytest

from repro.cn import (
    CNAPI,
    Cluster,
    Task,
    TaskFailedError,
    TaskRegistry,
    TaskSpec,
    replay_job,
)

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


class SendThenTraceCtx(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        ctx.send("client", "hi")
        return ctx.trace_ctx


class PlainFields(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return {
            "task_name": ctx.task_name,
            "job_id": ctx.job_id,
            "node_name": ctx.node_name,
            "peers": ctx.peers,
            "params": ctx.params,
            "my_dependencies": ctx.my_dependencies(),
            "my_dependents": ctx.my_dependents(),
            "attempt_epoch": ctx.attempt_epoch,
            "manager_epoch": ctx.manager_epoch,
            "trace_ctx": ctx.trace_ctx,
        }


class TwoParams(Task):
    def __init__(self, a, b):
        pass

    def run(self, ctx):
        return "constructed"


class CheckpointThenFailOnce(Task):
    """First attempt: checkpoint, read it back, fail.  The retry returns
    what ``restore`` hands it."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        state = self.restore()
        if state is not None:
            return ("retry restored", state)
        assert self.checkpoint({"x": 1}, tag="t0") is True
        assert self.restore() == {"x": 1}
        raise RuntimeError("first attempt fails after its checkpoint")


class CountsDown(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        ctx.counter("cn_demo_total").inc(-1)


class CountsAHistogram(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        ctx.counter("cn_payload_bytes").inc()


def parity_registry() -> TaskRegistry:
    registry = TaskRegistry()
    for cls in (
        SendThenTraceCtx,
        PlainFields,
        TwoParams,
        CheckpointThenFailOnce,
        CountsDown,
        CountsAHistogram,
    ):
        registry.register_class("parity.jar", f"t.{cls.__name__}", cls)
    return registry


def spec(name, cls, **kwargs):
    return TaskSpec(name=name, jar="parity.jar", cls=f"t.{cls.__name__}", **kwargs)


def start(cluster, *specs):
    api = CNAPI.initialize(cluster)
    handle = api.create_job("client")
    for s in specs:
        api.create_task(handle, s)
    api.start_job(handle)
    return api, handle


@pytest.fixture(params=TRANSPORTS)
def cluster(request):
    with Cluster(2, registry=parity_registry(), transport=request.param) as c:
        yield c


def test_sends_carry_the_attempt_span(cluster):
    """On ``proc`` the exec frame used to omit the attempt's span id, so
    a worker's sends were stamped ``task:<name>`` whatever the attempt."""
    api, handle = start(cluster, spec("t", SendThenTraceCtx))
    results = api.wait(handle, timeout=30)
    attempt = (handle.job_id, f"attempt:t#{handle.job.task('t').epoch}")
    assert tuple(results["t"]) == attempt
    sent = [m for m in handle.job.client_queue.drain() if m.is_user()]
    assert [(m.payload, m.trace_ctx) for m in sent] == [("hi", attempt)]


def test_context_plain_fields(cluster):
    api, handle = start(
        cluster,
        spec("up", PlainFields),
        spec("mid", PlainFields, depends=("up",), params=(3, "x", 2.5)),
        spec("down", PlainFields, depends=("mid",)),
    )
    seen = api.wait(handle, timeout=30)["mid"]
    runtime = handle.job.task("mid")
    assert seen == {
        "task_name": "mid",
        "job_id": handle.job_id,
        "node_name": runtime.node_name,
        "peers": ["up", "mid", "down"],
        "params": [3, "x", 2.5],
        "my_dependencies": ["up"],
        "my_dependents": ["down"],
        "attempt_epoch": runtime.epoch,
        "manager_epoch": handle.job.manager_epoch,
        "trace_ctx": (handle.job_id, f"attempt:mid#{runtime.epoch}"),
    }


def test_constructor_rejecting_its_params_fails_the_job(cluster):
    api, handle = start(cluster, spec("t", TwoParams, params=(1,)))
    with pytest.raises(TaskFailedError) as failure:
        api.wait(handle, timeout=30)
    assert (
        "TaskLoadError: cannot construct TwoParams for task 't' with params [1]: "
        "TwoParams.__init__() missing 1 required positional argument: 'b'"
    ) in failure.value.cause


def test_a_negative_counter_increment_fails_the_task(cluster):
    """On proc the increment used to reach the coordinator's counter,
    which refused it inside the demux thread: the thread died and the
    job never finished."""
    api, handle = start(cluster, spec("t", CountsDown))
    with pytest.raises(TaskFailedError) as failure:
        api.wait(handle, timeout=30)
    assert "ValueError: counters only go up" in failure.value.cause
    assert handle.job.task("t").state.value == "FAILED"


def test_a_counter_on_a_histograms_name_fails_the_task(cluster):
    """On proc the registry refused the name inside the demux thread:
    the thread died and the job never finished."""
    api, handle = start(cluster, spec("t", CountsAHistogram))
    with pytest.raises(TaskFailedError) as failure:
        api.wait(handle, timeout=6)
    assert (
        "ValueError: metric 'cn_payload_bytes' already registered"
        in failure.value.cause
    )
    assert handle.job.task("t").state.value == "FAILED"


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_checkpoint_without_durability_is_kept_in_the_job(transport):
    """``durable=False`` drops the journal, not the checkpoint: the job
    keeps the state, so a retried attempt restores it."""
    with Cluster(
        2,
        registry=parity_registry(),
        transport=transport,
        durable=False,
    ) as c:
        api, handle = start(c, spec("t", CheckpointThenFailOnce, max_retries=1))
        assert api.wait(handle, timeout=30) == {"t": ("retry restored", {"x": 1})}
        assert handle.job.task("t").attempts == 2


def test_zombie_attempts_checkpoint_is_fenced_inproc_as_on_proc():
    """A dead node's still-running thread used to overwrite the live
    attempt's checkpoint -- ``(5, {'i': 5})`` -> ``(99, 'late')``,
    journaled and replicated -- while its *outcome* was dropped; on proc
    the same late write already changed nothing
    (``test_late_checkpoint_frame_changes_nothing``)."""
    blocked, release, wrote_late = (threading.Event() for _ in range(3))

    class CheckpointBlockThenLate(Task):
        def __init__(self, *params):
            pass

        def run(self, ctx):
            state = self.restore()
            if state is not None:
                self.checkpoint({"i": 5}, tag=5)
                return ("resumed", state)
            self.checkpoint({"i": 0}, tag=0)
            blocked.set()
            release.wait(30)
            self.checkpoint("late", tag=99)  # the node is long dead
            wrote_late.set()

    registry = TaskRegistry()
    registry.register_class("z.jar", "t.Z", CheckpointBlockThenLate)
    try:
        with Cluster(3, registry=registry, transport="inproc") as c:
            c.servers[0].accept_tasks = False
            api = CNAPI.initialize(c)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle, TaskSpec(name="z", jar="z.jar", cls="t.Z", max_retries=2)
            )
            api.start_job(handle)
            assert blocked.wait(10)
            assert handle.job.task("z").node_name == "node1/tm"
            c.kill_node("node1")
            c.tick(3)  # declared dead, re-placed
            assert api.wait(handle, timeout=15) == {"z": ("resumed", {"i": 0})}
            job = handle.job
            assert job.load_checkpoint("z") == (5, {"i": 5})
            release.set()
            assert wrote_late.wait(10)
            assert job.load_checkpoint("z") == (5, {"i": 5})
            for server in c.servers:
                if server.name == "node1":
                    continue  # off the bus since it died
                replayed = replay_job(job.job_id, server.journal.records(job.job_id))
                assert replayed.load_checkpoint("z") == (5, {"i": 5}), server.name
    finally:
        release.set()
