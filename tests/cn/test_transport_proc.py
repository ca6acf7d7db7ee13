"""Proc transport end-to-end: real worker processes behind the same API.

Every test here drives the unchanged application surface (drivers,
CNAPI, descriptors) against ``Cluster(transport="proc")`` and proves the
work actually left the coordinator process (distinct worker pids), that
failures cross back faithfully, and that a killed worker flows through
the paper's failure-detection machinery rather than hanging the job.

The in-process-only features (chaos, virtual time, the lock verifier)
are guarded by construction-time ConfigError -- also covered here, with
the ``CN_TRANSPORT`` sweep that ``tests/conftest.py`` applies.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.apps.floyd import floyd_registry, run_parallel_floyd
from repro.apps.floyd.serial import floyd_warshall
from repro.apps.matmul import (
    matmul_registry,
    matmul_serial,
    register_matmul_tasks,
    run_parallel_matmul,
)
from repro.apps.wordcount import register_wordcount_tasks, run_parallel_wordcount
from repro.apps.wordcount.tasks import count_words_serial
from repro.cn import (
    CNAPI,
    ChaosPolicy,
    Cluster,
    ConfigError,
    Task,
    TaskFailedError,
    TaskSpec,
)
from repro.cn.chaos import VirtualClock
from repro.cn.transport import ProcTransport

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="proc transport requires the fork start method",
)


@pytest.fixture(scope="module")
def proc_cluster():
    registry = floyd_registry()
    register_matmul_tasks(registry)
    register_wordcount_tasks(registry)
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
            m, n_workers=3, cluster=proc_cluster, transform="native"
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
            a, b, n_workers=4, cluster=proc_cluster, transform="native"
        )
        assert np.allclose(c, matmul_serial(a, b))

    def test_wordcount_tuple_space_rpcs(self, proc_cluster):
        text = "the quick brown fox jumps over the lazy dog " * 40
        hist, _ = run_parallel_wordcount(
            text, shards=6, n_mappers=3, cluster=proc_cluster, transform="native"
        )
        assert hist == count_words_serial(text)

    def test_remote_failure_text_reaches_the_driver(self, proc_cluster):
        rng = np.random.default_rng(13)
        a, b = random_matrix(rng, 4, 3), random_matrix(rng, 5, 2)
        with pytest.raises(TaskFailedError, match="shape mismatch"):
            run_parallel_matmul(
                a, b, n_workers=2, cluster=proc_cluster, transform="native"
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


class TestWorkerDeath:
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
            run_parallel_matmul(a, b, n_workers=3, cluster=c, transform="native")
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
                a, b, n_workers=3, cluster=c, transform="native"
            )
            assert np.allclose(out, matmul_serial(a, b))


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

    # the CN_TRANSPORT sweep is the test suite's (tests/conftest.py wraps
    # Cluster construction); the constructor itself reads no environment

    def test_env_selected_proc_falls_back_for_chaos(self, monkeypatch):
        monkeypatch.setenv("CN_TRANSPORT", "proc")
        with Cluster(
            2, chaos=ChaosPolicy(seed=1), verify_locking=False
        ) as c:
            assert c.transport.name == "inproc"

    def test_env_selects_proc_for_plain_clusters(self, monkeypatch):
        monkeypatch.setenv("CN_TRANSPORT", "proc")
        with Cluster(2, verify_locking=False) as c:
            assert c.transport.name == "proc"
        unswept = Cluster.__new__(Cluster)
        Cluster.__init__.__wrapped__(unswept, 2)
        assert unswept.transport.name == "inproc"

    def test_unknown_transport_name_refused(self):
        with pytest.raises(ConfigError, match="unknown transport"):
            Cluster(2, transport="carrier-pigeon")

    def test_transport_instance_accepted(self):
        with Cluster(
            2, transport=ProcTransport(), verify_locking=False
        ) as c:
            assert c.transport.name == "proc"

    def test_inproc_remains_the_default(self, monkeypatch):
        monkeypatch.delenv("CN_TRANSPORT", raising=False)
        with Cluster(2, verify_locking=False) as c:
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
