"""Runtime lock-order verifier: graph recording, cycles, conditions."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conc.runtime import (
    InstrumentedLock,
    LockOrderError,
    LockVerifier,
    install_verifier,
    make_condition,
    make_lock,
    uninstall_verifier,
)


@pytest.fixture(autouse=True)
def _isolated_globals(monkeypatch):
    """Detach from any process-global verifier another test leaked (a
    verified cluster never shut down): seeded inversions here must not
    land in a shared graph that later cluster shutdowns would check."""
    from repro.analysis.conc import runtime

    monkeypatch.setattr(runtime, "_installed", None)
    monkeypatch.setattr(runtime, "_install_count", 0)


@pytest.fixture
def verifier():
    v = install_verifier()
    yield v
    uninstall_verifier()


def run_thread(fn):
    errors = []

    def wrapped():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001  # conclint: waive CC302 -- test harness relays any worker failure
            errors.append(exc)

    t = threading.Thread(target=wrapped)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive(), "worker thread hung"
    if errors:
        raise errors[0]


class TestFactories:
    def test_make_lock_plain_when_uninstalled(self):
        lock = make_lock("X._lock")
        assert not isinstance(lock, InstrumentedLock)
        with lock:
            pass

    def test_make_lock_instrumented_when_installed(self, verifier):
        lock = make_lock("X._lock")
        assert isinstance(lock, InstrumentedLock)
        with lock:
            assert verifier.holds(id(lock))
        assert not verifier.holds(id(lock))

    def test_non_reentrant_flavor(self, verifier):
        lock = make_lock("X._lock", reentrant=False)
        assert lock.acquire(blocking=False)
        assert not lock._inner.acquire(blocking=False)
        lock.release()


class TestGraph:
    def test_nested_acquisition_records_edge(self, verifier):
        a, b = make_lock("A._lock"), make_lock("B._lock")
        with a:
            with b:
                pass
        assert ("A._lock", "B._lock") in verifier.edges()
        verifier.check()  # one direction only: no cycle

    def test_reentrant_acquire_is_not_an_edge(self, verifier):
        a = make_lock("A._lock")
        with a:
            with a:
                pass
        assert verifier.edges() == {}
        verifier.check()

    def test_cross_instance_same_class_is_self_edge_cycle(self, verifier):
        first, second = make_lock("Q._lock"), make_lock("Q._lock")
        with first:
            with second:
                pass
        assert ("Q._lock", "Q._lock") in verifier.edges()
        with pytest.raises(LockOrderError, match="Q._lock -> Q._lock"):
            verifier.check()

    def test_two_lock_inversion_detected_with_witnesses(self, verifier):
        a, b = make_lock("A._lock"), make_lock("B._lock")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        run_thread(forward)
        run_thread(backward)
        with pytest.raises(LockOrderError) as excinfo:
            verifier.check()
        text = str(excinfo.value)
        assert "A._lock -> B._lock" in text
        assert "B._lock -> A._lock" in text
        # both witness stacks are reported, naming the acquisition sites
        assert "forward" in text
        assert "backward" in text

    def test_three_lock_cycle_detected(self, verifier):
        locks = [make_lock(f"L{i}._lock") for i in range(3)]

        def chain(i):
            def body():
                with locks[i]:
                    with locks[(i + 1) % 3]:
                        pass

            return body

        for i in range(3):
            run_thread(chain(i))
        with pytest.raises(LockOrderError) as excinfo:
            verifier.check()
        assert str(excinfo.value).count("->") >= 3

    def test_detection_is_load_bearing_when_stubbed_out(self, verifier, monkeypatch):
        """Meta-test: the inversion scenarios above rely on real cycle
        detection -- with find_cycles stubbed to 'no cycles', the same
        seeded inversion sails through check() silently."""
        a, b = make_lock("A._lock"), make_lock("B._lock")

        def nest(outer, inner):
            def body():
                with outer:
                    with inner:
                        pass

            return body

        run_thread(nest(a, b))
        run_thread(nest(b, a))
        with pytest.raises(LockOrderError):
            verifier.check()
        monkeypatch.setattr(LockVerifier, "find_cycles", lambda self: [])
        verifier.check()  # silently passes: proves the real detector matters

    def test_report_shape(self, verifier):
        a, b = make_lock("A._lock"), make_lock("B._lock")
        with a:
            with b:
                pass
        report = verifier.report()
        assert [
            (e["holder"], e["acquired"]) for e in report["edges"]
        ] == [("A._lock", "B._lock")]
        assert report["cycles"] == []
        assert report["held"]["A._lock"]["acquisitions"] == 1
        assert report["held"]["B._lock"]["total_held_s"] >= 0


class TestConditionIntegration:
    def test_wait_detaches_and_reattaches(self, verifier):
        lock = make_lock("C._lock")
        cond = make_condition("C._lock", lock)
        started = threading.Event()

        def waiter():
            with cond:
                started.set()
                cond.wait(timeout=5)
                assert verifier.holds(id(lock))

        t = threading.Thread(target=waiter)
        t.start()
        assert started.wait(timeout=5)
        with cond:
            cond.notify_all()
        t.join(timeout=5)
        assert not t.is_alive()
        verifier.check()

    def test_wait_under_second_lock_still_records_first_edge(self, verifier):
        outer = make_lock("Outer._lock")
        lock = make_lock("C._lock")
        cond = make_condition("C._lock", lock)
        with outer:
            with cond:
                cond.wait(timeout=0.01)
        assert ("Outer._lock", "C._lock") in verifier.edges()


class TestGuardedBy:
    def test_assert_held_by_me(self, verifier):
        lock = make_lock("G._lock")
        with lock:
            lock.assert_held_by_me()
        with pytest.raises(LockOrderError, match="guarded-by violation"):
            lock.assert_held_by_me("test site")

    def test_tuplespace_take_is_dynamically_guarded(self, verifier):
        from repro.cn.tuplespace import TupleSpace

        space = TupleSpace()
        space.out(("k", 1))
        assert space.inp(("k", None)) == ("k", 1)  # locked path works
        space.out(("k", 2))
        with pytest.raises(LockOrderError, match="guarded-by violation"):
            space._take(("k", None), remove=True)

    def test_guarded_by_free_without_verifier(self):
        from repro.cn.tuplespace import TupleSpace

        space = TupleSpace()
        space.out(("k", 1))
        # no verifier installed: the declaration must not get in the way
        assert space._take(("k", None), remove=True) == ("k", 1)


class TestAcquisitionOrderInvariance:
    """The lock-order graph is a function of *which* nestings occur, not
    of the thread interleaving that produced them: running the same
    acquisition scripts in any order yields the same edge set."""

    @settings(max_examples=25, deadline=None)
    @given(
        scripts=st.lists(
            st.lists(
                st.sampled_from(["A._lock", "B._lock", "C._lock", "D._lock"]),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_edge_set_invariant_under_script_shuffle(self, scripts, seed):
        import random

        def run_scripts(ordered):
            verifier = LockVerifier()
            locks = {
                name: InstrumentedLock(name, verifier)
                for name in {n for s in scripts for n in s}
            }

            def execute(script):
                held = []
                for name in script:
                    locks[name].acquire()
                    held.append(name)
                for name in reversed(held):
                    locks[name].release()

            threads = [
                threading.Thread(target=execute, args=(script,))
                for script in ordered
            ]
            # deterministic seed: run the scripts sequentially in the
            # shuffled order (each joined before the next starts)
            for t in threads:
                t.start()
                t.join(timeout=10)
            return set(verifier.edges())

        baseline = run_scripts(list(scripts))
        shuffled = list(scripts)
        random.Random(seed).shuffle(shuffled)
        assert run_scripts(shuffled) == baseline
