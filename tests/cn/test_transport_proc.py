"""Proc transport end-to-end: real worker processes behind the same API.

Every test here drives the unchanged application surface (drivers,
CNAPI, descriptors) against ``Cluster(transport="proc")`` and proves the
work actually left the coordinator process (distinct worker pids), that
failures cross back faithfully, and that a killed worker flows through
the paper's failure-detection machinery rather than hanging the job.

The in-process-only features (chaos, virtual time, the lock verifier)
are guarded by construction-time ConfigError -- also covered here.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall_numpy,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_JAR,
)
from repro.apps.floyd.serial import floyd_warshall
from repro.apps.floyd.tasks import TCTask
from repro.apps.matmul import (
    matmul_registry,
    matmul_serial,
    register_matmul_tasks,
    run_parallel_matmul,
)
from repro.apps.montecarlo import register_pi_tasks, run_parallel_pi
from repro.apps.wordcount import register_wordcount_tasks, run_parallel_wordcount
from repro.apps.wordcount.tasks import count_words_serial
from repro.cn import (
    CNAPI,
    ChaosPolicy,
    Cluster,
    ConfigError,
    Job,
    ShutdownError,
    Task,
    TaskFailedError,
    TaskSpec,
    collect_trace,
    replay_job,
)
from repro.cn.chaos import VirtualClock
from repro.cn.transport import ProcTransport
from repro.cn.transport.worker import WorkerRuntime

from .test_durability import EchoPair, Quick, echo_registry, worker_only_nodes

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="proc transport requires the fork start method",
)


@pytest.fixture(scope="module")
def proc_cluster():
    registry = floyd_registry()
    register_matmul_tasks(registry)
    register_wordcount_tasks(registry)
    register_pi_tasks(registry)
    registry.register_class("echo.jar", "t.EchoPair", EchoPair)
    registry.register_class("quick.jar", "t.Quick", Quick)
    with Cluster(
        4,
        registry=registry,
        memory_per_node=64000,
        transport="proc",
        verify_locking=False,
    ) as c:
        yield c


def random_matrix(rng, rows, cols):
    return rng.uniform(-5, 5, size=(rows, cols)).tolist()


class TestProcExecution:
    def test_floyd_matches_serial_in_worker_processes(self, proc_cluster):
        rng = np.random.default_rng(11)
        n = 12
        m = rng.uniform(1, 9, size=(n, n)).tolist()
        for i in range(n):
            m[i][i] = 0.0
        result, _ = run_parallel_floyd(
            m, n_workers=3, cluster=proc_cluster
        )
        assert np.allclose(result, floyd_warshall(m))
        pids = proc_cluster.transport.worker_pids()
        assert pids, "no worker ever forked"
        assert os.getpid() not in pids.values()
        assert len(set(pids.values())) == len(pids)

    def test_matmul_matches_numpy(self, proc_cluster):
        rng = np.random.default_rng(12)
        a, b = random_matrix(rng, 16, 12), random_matrix(rng, 12, 9)
        c, _ = run_parallel_matmul(
            a, b, n_workers=4, cluster=proc_cluster
        )
        assert np.allclose(c, matmul_serial(a, b))

    def test_pi_estimate_is_the_seed_s_in_worker_processes(self, proc_cluster):
        # the same seed gives the same estimate wherever the workers ran
        estimate, _ = run_parallel_pi(
            samples=20000, seed=3, n_workers=3, cluster=proc_cluster
        )
        inproc, _ = run_parallel_pi(samples=20000, seed=3, n_workers=3)
        assert estimate == inproc

    def test_wordcount_tuple_space_rpcs(self, proc_cluster):
        text = "the quick brown fox jumps over the lazy dog " * 40
        hist, _ = run_parallel_wordcount(
            text, shards=6, n_mappers=3, cluster=proc_cluster
        )
        assert hist == count_words_serial(text)

    def test_remote_failure_text_reaches_the_driver(self, proc_cluster):
        rng = np.random.default_rng(13)
        a, b = random_matrix(rng, 4, 3), random_matrix(rng, 5, 2)
        with pytest.raises(TaskFailedError, match="shape mismatch"):
            run_parallel_matmul(
                a, b, n_workers=2, cluster=proc_cluster
            )

    def test_frames_counted_per_node(self, proc_cluster):
        stats = proc_cluster.transport.stats()
        assert stats, "no endpoint stats collected"
        for node, counters in stats.items():
            assert counters["frames_sent"] > 0, node
            assert counters["bytes_sent"] > 0, node

    def test_local_class_falls_back_inline(self, proc_cluster):
        # a class defined inside a test function cannot cross a pickle
        # boundary; the executor must run it inline instead of failing
        ran_in = {}

        class LocalProbe(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                ran_in["pid"] = os.getpid()
                return "ok"

        proc_cluster.registry.register_class("local.jar", "t.Probe", LocalProbe)
        before = proc_cluster.transport.inline_fallbacks
        api = CNAPI.initialize(proc_cluster)
        handle = api.create_job("client")
        api.create_task(
            handle, TaskSpec(name="p0", jar="local.jar", cls="t.Probe")
        )
        api.start_job(handle)
        assert api.wait(handle, timeout=30) == {"p0": "ok"}
        assert ran_in["pid"] == os.getpid()
        assert proc_cluster.transport.inline_fallbacks > before


# Task classes that cross the process boundary must be importable by
# name in the forked worker, so they live at module level.


class CheckpointThenSend(Task):
    """``count`` rounds of checkpoint-then-send to ``peer``."""

    def __init__(self, peer, count):
        self.peer, self.count = peer, int(count)

    def run(self, ctx):
        for i in range(self.count):
            self.checkpoint({"i": i}, tag=i)
            ctx.send(self.peer, i)
        return self.count


class Sink(Task):
    """Receives ``count`` user messages and returns their payloads."""

    def __init__(self, count):
        self.count = int(count)

    def run(self, ctx):
        return [ctx.recv_user(timeout=30.0).payload for _ in range(self.count)]


class CheckpointThenBlock(Task):
    """Checkpoints tags 0..5, then blocks on its queue; touches
    ``marker`` when the block ends in a cancellation."""

    def __init__(self, marker):
        self.marker = marker

    def run(self, ctx):
        for i in range(6):
            self.checkpoint({"i": i}, tag=i)
        try:
            ctx.recv_user(timeout=30.0)
        except ShutdownError:
            with open(self.marker, "w") as fh:
                fh.write(str(os.getpid()))
            raise
        return "never cancelled"


class Chatty(Task):
    """``count`` checkpoints, tuple_outs and tuple_inps -- every call of
    the kinds that must not cost the coordinator a thread -- then
    ``blocking`` tuple_in calls, which each must."""

    def __init__(self, count, blocking):
        self.count, self.blocking = int(count), int(blocking)

    def run(self, ctx):
        space = ctx.tuple_space
        for i in range(self.count):
            self.checkpoint(i, tag=i)
            space.out(("chatty", i))
            assert space.inp(("chatty", i)) == ("chatty", i)
        for i in range(self.blocking):
            space.out(("chatty-blocking", i))
            space.in_(("chatty-blocking", i), 5.0)
        return os.getpid()


class TupleWaiter(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.tuple_space.in_(("rendezvous", None), 10.0)


class TuplePutter(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        time.sleep(0.3)  # let the waiter park in tuple_in first
        ctx.tuple_space.out(("rendezvous", os.getpid()))
        return os.getpid()


class SlowTCTask(TCTask):
    """A Floyd worker slow enough to be killed mid-algorithm."""

    def _after_step(self, k, ctx):
        time.sleep(0.005)


CONTRACT_CLASSES = {
    "t.CheckpointThenSend": CheckpointThenSend,
    "t.Sink": Sink,
    "t.CheckpointThenBlock": CheckpointThenBlock,
    "t.Chatty": Chatty,
    "t.TupleWaiter": TupleWaiter,
    "t.TuplePutter": TuplePutter,
}


def contract_spec(name, cls, *params, **kwargs):
    return TaskSpec(name=name, jar="contract.jar", cls=cls, params=params, **kwargs)


def run_job(cluster, *specs, timeout=30):
    """Run *specs* as one job managed by node0, every attempt in a
    worker process; (handle, results)."""
    for cls_name, cls in CONTRACT_CLASSES.items():
        cluster.registry.register_class("contract.jar", cls_name, cls)
    inline = cluster.transport.inline_fallbacks
    api = CNAPI.initialize(cluster)
    handle = api.create_job("client", requirements={"prefer": "node0"})
    for spec in specs:
        api.create_task(handle, spec)
    api.start_job(handle)
    results = api.wait(handle, timeout=timeout)
    assert cluster.transport.inline_fallbacks == inline
    return handle, results


class TestCheckpointFrames:
    """A checkpoint crosses as a one-way frame: ordered, not acknowledged."""

    def test_journaled_before_later_sends_and_before_the_outcome(
        self, proc_cluster, monkeypatch
    ):
        count = 50
        # a replica retains only the latest checkpoint per task, so the
        # history is read where it still is: the order batches reached
        # node0's backend (as the writer or as a replica, the same order)
        backend = proc_cluster.server("node0").journal.backend
        extend, arrived = backend.extend, []

        def recording_extend(batch):
            arrived.extend(batch)
            return extend(batch)

        monkeypatch.setattr(backend, "extend", recording_extend)
        handle, results = run_job(
            proc_cluster,
            contract_spec("src", "t.CheckpointThenSend", "sink", count),
            contract_spec("sink", "t.Sink", count),
        )
        assert results["sink"] == list(range(count))
        records = [r for r in arrived if r.job_id == handle.job_id]
        assert [r.seq for r in records] == sorted(r.seq for r in records)
        checkpoints = {
            r.data["tag"]: r.seq
            for r in records
            if r.kind == "checkpoint" and r.data["task"] == "src"
        }
        deliveries = {
            m.payload: r.seq
            for r in records
            if r.kind == "delivery"
            for m in r.data["messages"]
            if m.sender == "src"
        }
        [terminal] = [
            r.seq
            for r in records
            if r.kind == "task-state"
            and r.data["task"] == "src"
            and r.data["state"] == "COMPLETED"
        ]
        assert sorted(checkpoints) == sorted(deliveries) == list(range(count))
        for i in range(count):
            assert checkpoints[i] < deliveries[i], i
        assert max(checkpoints.values()) < terminal

    def test_a_checkpoint_that_cannot_be_saved_fails_the_attempt(
        self, proc_cluster, monkeypatch, tmp_path
    ):
        save = Job.save_checkpoint

        def failing_save(self, task, state, tag=None):
            if tag == 3:
                raise OSError("journal disk is full")
            save(self, task, state, tag)

        monkeypatch.setattr(Job, "save_checkpoint", failing_save)
        marker = tmp_path / "cancelled"
        started = time.monotonic()
        with pytest.raises(TaskFailedError) as failure:
            run_job(
                proc_cluster,
                contract_spec("blocker", "t.CheckpointThenBlock", str(marker)),
            )
        assert "RemoteTaskError" in failure.value.cause
        assert "OSError" in failure.value.cause
        assert "journal disk is full" in failure.value.cause
        # the worker-side attempt was cancelled out of its 30 s receive...
        deadline = time.monotonic() + 10
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists()
        assert time.monotonic() - started < 15
        # ...by a worker process that is still there for the next job
        worker_pid = int(marker.read_text())
        assert worker_pid in proc_cluster.transport.worker_pids().values()
        monkeypatch.undo()
        _, results = run_job(
            proc_cluster,
            contract_spec("src", "t.CheckpointThenSend", "sink", 3),
            contract_spec("sink", "t.Sink", 3),
        )
        assert results == {"src": 3, "sink": [0, 1, 2]}

    def test_late_checkpoint_frame_changes_nothing(self, proc_cluster):
        handle, _ = run_job(
            proc_cluster,
            contract_spec("src", "t.CheckpointThenSend", "sink", 2),
            contract_spec("sink", "t.Sink", 2),
        )
        job = handle.job
        journal = proc_cluster.server("node0").journal
        before = (job.load_checkpoint("src"), len(journal.records(handle.job_id)))
        node = job.task("src").node_name.split("/")[0]
        worker = proc_cluster.transport.ensure_worker(node)
        worker._dispatch(
            "checkpoint",
            {"exec_id": f"{handle.job_id}/src#1:0", "state": "late", "tag": 99},
        )
        after = (job.load_checkpoint("src"), len(journal.records(handle.job_id)))
        assert after == before
        assert before[0] == (1, {"i": 1})


class TestCoordinatorThreads:
    """Calls out of a worker run on the node's demux thread; only the
    two RPCs that can wait on another attempt take a thread."""

    @pytest.mark.parametrize("blocking", [0, 3])
    def test_only_blocking_rpcs_start_a_thread(
        self, proc_cluster, monkeypatch, blocking
    ):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        _, results = run_job(
            proc_cluster, contract_spec("chatty", "t.Chatty", 200, blocking)
        )
        monkeypatch.undo()
        assert results["chatty"] != os.getpid()
        [pump] = [i for i, name in enumerate(started) if name.startswith("cn-pump-")]
        assert len(started[pump + 1 :]) == blocking, started

    def test_blocking_rpc_does_not_block_the_nodes_reader(self):
        # both attempts share one node, so one socket and one reader: a
        # tuple_in dispatched on it would wait for a tuple_out that the
        # same reader can then never read
        registry = floyd_registry()
        with Cluster(
            1,
            registry=registry,
            memory_per_node=64000,
            transport="proc",
            verify_locking=False,
        ) as c:
            started = time.monotonic()
            _, results = run_job(
                c,
                contract_spec("waiter", "t.TupleWaiter"),
                contract_spec("putter", "t.TuplePutter"),
            )
            elapsed = time.monotonic() - started
            assert list(c.transport.worker_pids()) == ["node0"]
        assert results["waiter"] == ("rendezvous", results["putter"])
        assert elapsed < 5.0


class TestUnknownFrames:
    """A frame whose op a side does not know is counted, then dropped."""

    def test_coordinator_counts_it(self, proc_cluster):
        run_job(proc_cluster, contract_spec("sink", "t.Sink", 0))
        node, _ = sorted(proc_cluster.transport.worker_pids().items())[0]
        worker = proc_cluster.transport.ensure_worker(node)
        registry = proc_cluster.telemetry.metrics
        before = registry.value("cn_transport_frames_unknown_total", node=node) or 0
        worker._dispatch("no-such-op", {})
        worker._dispatch("batch", {"frames": [("no-such-op", {})]})
        after = registry.value("cn_transport_frames_unknown_total", node=node)
        assert after == before + 2

    def test_worker_reports_it_with_its_next_flush(self):
        class ScriptedEndpoint:
            def __init__(self, frames):
                self.frames = list(frames)
                self.sent = []

            def recv(self):
                return self.frames.pop(0) if self.frames else None

            def send(self, frame):
                self.sent.append(frame)

        endpoint = ScriptedEndpoint([("no-such-op", {}), ("stop", {})])
        WorkerRuntime(endpoint, "nodeX").run()
        [(op, data)] = endpoint.sent
        assert op == "metric"
        assert data["name"] == "cn_transport_frames_unknown_total"
        assert data["amount"] == 1


def build_floyd_job(api, source, workers, worker_cls):
    """The Fig. 3 DAG through the CN API, every task retryable once (a
    killed node takes all the attempts it hosts with it)."""
    handle = api.create_job("client", requirements={"prefer": "node0"})
    api.create_task(
        handle,
        TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS,
                 params=(source,), max_retries=1),
    )
    names = [f"w{i}" for i in range(workers)]
    for i, name in enumerate(names):
        api.create_task(
            handle,
            TaskSpec(name=name, jar=WORKER_JAR, cls=worker_cls,
                     params=(i + 1,), depends=("split",), max_retries=1),
        )
    api.create_task(
        handle,
        TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS, params=("",),
                 depends=tuple(names), max_retries=1),
    )
    api.start_job(handle)
    return handle


class TestWorkerDeath:
    def test_killed_attempt_resumes_from_a_checkpoint_frame(self):
        n, workers, at_least = 64, 4, 16
        matrix = random_weighted_graph(n, seed=41)
        source = store_matrix("floyd-proc-resume", matrix)
        registry = floyd_registry()
        registry.register_class(WORKER_JAR, "t.SlowTCTask", SlowTCTask)
        with Cluster(
            5,
            registry=registry,
            memory_per_node=64000,
            transport="proc",
            verify_locking=False,
            failure_k=2,
        ) as c:
            c.servers[0].accept_tasks = False  # node0: manager only
            c.start_heartbeats()
            api = CNAPI.initialize(c)
            handle = build_floyd_job(api, source, workers, "t.SlowTCTask")
            job = handle.job
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                found = job.load_checkpoint("w0")
                if found is not None and found[0] >= at_least:
                    break
                time.sleep(0.001)
            else:
                pytest.fail("w0 never checkpointed step 16")
            victim = job.task("w0").node_name.split("/")[0]
            os.kill(c.transport.worker_pids()[victim], signal.SIGKILL)
            results = api.wait(handle, timeout=60)
            trace = collect_trace(handle)
            assert c.transport.inline_fallbacks == 0
        assert np.allclose(results["join"], floyd_warshall_numpy(matrix))
        # the re-placed attempt restarted from a checkpoint that crossed
        # the process boundary as a one-way frame
        assert results["w0"]["resumed_from"] >= at_least
        assert trace.task("w0").resumes == 1
        assert trace.task("w0").resumed_from == [results["w0"]["resumed_from"]]
        assert trace.task("w0").starts == 2

    def test_killed_worker_flows_through_failure_detection(self):
        registry = matmul_registry()
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 12, 12)
        b = random_matrix(rng, 12, 12)
        with Cluster(
            4,
            registry=registry,
            memory_per_node=64000,
            transport="proc",
            verify_locking=False,
        ) as c:
            run_parallel_matmul(a, b, n_workers=3, cluster=c)
            pids = c.transport.worker_pids()
            victim, victim_pid = sorted(pids.items())[0]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while c.transport.node_healthy(victim) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not c.transport.node_healthy(victim)
            server = next(s for s in c.servers if s.name == victim)
            # a dead worker silences the node: no heartbeat, no hosting
            assert server.taskmanager.beat() is None
            # and the cluster still completes jobs on the surviving nodes
            out, _ = run_parallel_matmul(
                a, b, n_workers=3, cluster=c
            )
            assert np.allclose(out, matmul_serial(a, b))


class TestDurableJobsOnWorkers:
    """The journal is written by the coordinator from what crosses back:
    attempt outcomes and the deliveries a worker's task received."""

    def test_a_finished_job_leaves_a_complete_journal(self, proc_cluster):
        inline = proc_cluster.transport.inline_fallbacks
        api = CNAPI.initialize(proc_cluster)
        handle = api.create_job("client")
        api.create_tasks(
            handle,
            [
                TaskSpec(name="q", jar="quick.jar", cls="t.Quick"),
                TaskSpec(name="e", jar="echo.jar", cls="t.EchoPair"),
            ],
        )
        api.start_job(handle)
        api.send_message(handle, "e", "one")
        api.send_message(handle, "e", "two")
        assert api.wait(handle, timeout=30) == {"q": "ok", "e": ["one", "two"]}
        records = handle.manager.journal.records(handle.job_id)
        journaled = [
            m.payload
            for r in records
            if r.kind == "delivery"
            for m in r.data["messages"]
        ]
        assert journaled == ["one", "two"]
        snapshot = replay_job(handle.job_id, records)
        assert snapshot.finished and not snapshot.failed
        assert snapshot.results == {"q": "ok", "e": ["one", "two"]}
        assert snapshot.deliveries.get("e", []) == []
        assert snapshot.gc_watermarks["e"] == 2
        assert proc_cluster.transport.inline_fallbacks == inline  # both crossed

    def test_a_successor_completes_an_attempt_running_in_a_worker(self):
        with Cluster(
            3, registry=echo_registry(), failure_k=2, transport="proc"
        ) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.EchoPair", max_retries=2),
            )
            api.start_job(handle)
            api.send_message(handle, "e", "first")
            cluster.kill_node("node0")
            cluster.tick(3)  # detect death -> lowest survivor adopts
            assert handle.manager.name == "node1/jm"
            api.send_message(handle, "e", "second")
            # "first" came back from the replayed ledger into a worker
            assert api.wait(handle, timeout=30)["e"] == ["first", "second"]
            assert cluster.transport.inline_fallbacks == 0


class TestConfigGuards:
    def test_explicit_proc_with_chaos_refused(self):
        with pytest.raises(ConfigError, match="chaos"):
            Cluster(
                2,
                chaos=ChaosPolicy(seed=1),
                transport="proc",
                verify_locking=False,
            )

    def test_explicit_proc_with_caller_clock_refused(self):
        with pytest.raises(ConfigError, match="VirtualClock"):
            Cluster(
                2, clock=VirtualClock(), transport="proc", verify_locking=False
            )

    def test_explicit_proc_with_lock_verifier_refused(self):
        with pytest.raises(ConfigError, match="verify_locking"):
            Cluster(2, transport="proc", verify_locking=True)

    def test_unknown_transport_name_refused(self):
        with pytest.raises(ConfigError, match="unknown transport"):
            Cluster(2, transport="carrier-pigeon")

    def test_transport_instance_refused(self):
        # the two names are the whole domain of transport=
        with pytest.raises(ConfigError, match="unknown transport"):
            Cluster(2, transport=ProcTransport(), verify_locking=False)

    def test_inproc_remains_the_default(self):
        with Cluster(2) as c:
            assert c.transport.name == "inproc"


class TestMetricsNamespacing:
    def test_namespaced_view_stamps_node_label(self):
        from repro.cn.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.namespaced("node3").counter("cn_test_total").inc(2)
        assert registry.value("cn_test_total", node="node3") == 2
        assert registry.value("cn_test_total") is None  # unscoped is distinct

    def test_two_nodes_never_collide(self):
        from repro.cn.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.namespaced("a").counter("cn_x_total").inc()
        registry.namespaced("b").counter("cn_x_total").inc(5)
        assert registry.value("cn_x_total", node="a") == 1
        assert registry.value("cn_x_total", node="b") == 5

    def test_explicit_node_label_wins(self):
        from repro.cn.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.namespaced("a").counter("cn_y_total", node="z").inc()
        assert registry.value("cn_y_total", node="z") == 1
        assert registry.value("cn_y_total", node="a") is None

    def test_transport_gauges_exported_per_node(self, proc_cluster):
        proc_cluster.tick()
        registry = proc_cluster.telemetry.metrics
        stats = proc_cluster.transport.stats()
        assert stats
        for node in stats:
            value = registry.value("cn_transport_frames_sent", node=node)
            assert value is not None and value > 0
