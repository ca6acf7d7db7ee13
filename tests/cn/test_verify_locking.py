"""End-to-end runtime lock verification: ``Cluster(verify_locking=True)``."""

import threading

import pytest

from repro.analysis.conc.runtime import (
    LockOrderError,
    LockVerifier,
    current_verifier,
    make_lock,
)
from repro.cn import CNAPI, Cluster, TaskSpec

from ..conftest import basic_registry


@pytest.fixture(autouse=True)
def _isolated_verifier(monkeypatch):
    """Detach from any process-global verifier another test installed
    (every verified cluster joins one refcounted graph, and a test that
    never shuts its cluster down leaks its install).  Seeded inversions
    below must land in a private graph, not the shared one -- monkeypatch
    restores the previous globals afterwards."""
    from repro.analysis.conc import runtime

    monkeypatch.setattr(runtime, "_installed", None)
    monkeypatch.setattr(runtime, "_install_count", 0)


def run_job(cluster):
    api = CNAPI.initialize(cluster)
    handle = api.create_job("verify-locking")
    api.create_task(handle, TaskSpec(name="a", jar="echo.jar", cls="test.Echo"))
    api.create_task(
        handle, TaskSpec(name="b", jar="echo.jar", cls="test.Echo", depends=("a",))
    )
    api.start_job(handle)
    return api.wait(handle, timeout=30)


def nest(outer, inner):
    """A thread body acquiring *outer* then *inner* (both released)."""

    def body():
        with outer:
            with inner:
                pass

    t = threading.Thread(target=body)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()


class TestVerifiedCluster:
    def test_clean_workload_shuts_down_quietly(self):
        """The current tree's lock-order graph is a DAG: a full dependent
        job under verification produces edges but no cycle."""
        with Cluster(2, registry=basic_registry(), verify_locking=True) as cluster:
            assert cluster.lock_verifier is not None
            assert current_verifier() is cluster.lock_verifier
            run_job(cluster)
            cluster.tick()
            report = cluster.lock_verifier.report()
        assert report["edges"], "expected nested acquisitions in a real workload"
        assert report["cycles"] == []
        assert current_verifier() is None  # uninstalled at shutdown

    def test_held_time_exported_through_telemetry(self):
        with Cluster(2, registry=basic_registry(), verify_locking=True) as cluster:
            run_job(cluster)
            metrics = cluster.telemetry.metrics
            histograms = [
                m for m in metrics.all_metrics() if m.name == "cn_lock_held_seconds"
            ]
            assert histograms, "expected per-lock held-time histograms"
            assert {"lock"} == {k for m in histograms for k in m.labels}
            assert any(m.count > 0 for m in histograms)

    def test_off_by_default_and_costless(self):
        with Cluster(1, registry=basic_registry()) as cluster:
            assert cluster.lock_verifier is None
            lock = make_lock("Anything._lock")
            assert type(lock).__name__ in ("RLock", "lock")  # plain primitive

    def test_seeded_two_lock_inversion_raises_at_shutdown(self):
        cluster = Cluster(1, registry=basic_registry(), verify_locking=True)
        cluster.start()
        a = make_lock("SeededA._lock")
        b = make_lock("SeededB._lock")
        nest(a, b)
        nest(b, a)
        with pytest.raises(LockOrderError) as excinfo:
            cluster.shutdown()
        text = str(excinfo.value)
        assert "SeededA._lock -> SeededB._lock" in text
        assert "SeededB._lock -> SeededA._lock" in text
        # shutdown already uninstalled before check(): safe to re-enter
        cluster.shutdown()

    def test_three_lock_cycle_via_stalled_threads(self):
        """Three threads each chain L(i) -> L(i+1) in dining-philosophers
        order, stalled on events so the chains never overlap at runtime:
        no actual deadlock occurs, but the recorded graph proves some
        schedule of the same program would."""
        cluster = Cluster(1, registry=basic_registry(), verify_locking=True)
        cluster.start()
        locks = [make_lock(f"Philo{i}._lock") for i in range(3)]
        go = [threading.Event() for _ in range(3)]
        done = [threading.Event() for _ in range(3)]

        def philosopher(i):
            assert go[i].wait(timeout=10)
            with locks[i]:
                with locks[(i + 1) % 3]:
                    pass
            done[i].set()

        threads = [
            threading.Thread(target=philosopher, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for i in range(3):  # release the stalls one philosopher at a time
            go[i].set()
            assert done[i].wait(timeout=10)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        with pytest.raises(LockOrderError, match="lock-order cycle"):
            cluster.shutdown()
        cluster.shutdown()

    def test_inversion_detection_is_not_stubbed(self, monkeypatch):
        """Meta-test: with cycle detection stubbed out, the seeded
        inversion would pass silently -- proving the positive tests above
        exercise the real detector, not a hard-coded failure."""
        cluster = Cluster(1, registry=basic_registry(), verify_locking=True)
        cluster.start()
        a, b = make_lock("StubA._lock"), make_lock("StubB._lock")
        nest(a, b)
        nest(b, a)
        monkeypatch.setattr(LockVerifier, "find_cycles", lambda self: [])
        cluster.shutdown()  # no LockOrderError: detector was the only guard
