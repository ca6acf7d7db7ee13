"""VirtualClock(drive_timeouts=True) edge cases in client waits.

The simulation harness leans on virtual-time deadlines for every run
with hazards, so the boundary behaviour must be exact: a deadline
expires *at* its tick (not one past), a clock jump lands while the
waiter is parked inside ``wait_or_rebind``, and concurrent waiters
with different budgets expire independently.
"""

import threading

from repro.cn import CNAPI, Cluster, Task, TaskRegistry, TaskSpec, VirtualClock
from repro.cn.errors import JobTimeoutError

_gates: dict[str, threading.Event] = {}


class Gate(Task):
    """Holds until its named gate opens (keeps the job in-flight)."""

    def __init__(self, *params):
        self.key = str(params[0]) if params else "default"

    def run(self, ctx):
        _gates[self.key].wait(20)
        return "ok"


def gate_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("gate.jar", "t.Gate", Gate)
    return registry


def gated(key: str) -> str:
    _gates[key] = threading.Event()
    return key


def start_gated_job(api, key):
    handle = api.create_job("c")
    api.create_task(
        handle, TaskSpec(name="g", jar="gate.jar", cls="t.Gate", params=(key,))
    )
    api.start_job(handle)
    return handle


def spawn_waiter(api, handle, timeout):
    """Runs ``api.wait`` on a thread; outcome[0] is the exception or result."""
    outcome = []

    def waiter():
        try:
            outcome.append(("ok", api.wait(handle, timeout=timeout)))
        except JobTimeoutError as exc:
            outcome.append(("timeout", exc))

    thread = threading.Thread(target=waiter)
    thread.start()
    return thread, outcome


def settle(thread, outcome, seconds=5):
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "waiter never woke"
    return outcome[0]


class TestDeadlineBoundary:
    def test_timeout_fires_exactly_at_the_deadline_tick(self):
        key = gated("edge-exact")
        clock = VirtualClock(drive_timeouts=True)
        try:
            with Cluster(1, registry=gate_registry(), clock=clock) as cluster:
                api = CNAPI.initialize(cluster)
                handle = start_gated_job(api, key)
                thread, outcome = spawn_waiter(api, handle, timeout=5.0)

                # one tick short of the deadline: remaining == 1 > 0, so
                # the waiter must still be parked
                cluster.tick(4)
                thread.join(timeout=0.4)
                assert thread.is_alive()
                assert not outcome

                # the tick that lands ON the deadline expires it: the
                # contract is remaining <= 0, not strictly negative
                cluster.tick(1)
                status, exc = settle(thread, outcome)
                assert status == "timeout"
                assert exc.timeout == 5.0
        finally:
            _gates[key].set()

    def test_zero_timeout_expires_without_blocking(self):
        key = gated("edge-zero")
        clock = VirtualClock(drive_timeouts=True)
        try:
            with Cluster(1, registry=gate_registry(), clock=clock) as cluster:
                api = CNAPI.initialize(cluster)
                handle = start_gated_job(api, key)
                # deadline == now: expired before the first wait slice,
                # even though virtual time never advances
                thread, outcome = spawn_waiter(api, handle, timeout=0.0)
                status, _ = settle(thread, outcome)
                assert status == "timeout"
        finally:
            _gates[key].set()


class TestVirtualClockWait:
    def test_wait_timeout_runs_on_virtual_time(self):
        key = gated("virtual-wait")
        clock = VirtualClock(drive_timeouts=True)
        try:
            with Cluster(1, registry=gate_registry(), clock=clock) as cluster:
                api = CNAPI.initialize(cluster)
                handle = start_gated_job(api, key)
                # 1000 *virtual* seconds: on wall time this would park
                # the test forever
                thread, outcome = spawn_waiter(api, handle, timeout=1000.0)
                cluster.tick(1001)
                status, _ = settle(thread, outcome)
                assert status == "timeout"
        finally:
            _gates[key].set()


class TestInFlightAdvance:
    def test_clock_jump_lands_while_parked_in_wait_or_rebind(self):
        key = gated("edge-jump")
        clock = VirtualClock(drive_timeouts=True)
        try:
            with Cluster(1, registry=gate_registry(), clock=clock) as cluster:
                api = CNAPI.initialize(cluster)
                handle = start_gated_job(api, key)
                thread, outcome = spawn_waiter(api, handle, timeout=10.0)

                # let the waiter park inside wait_or_rebind's wall slice
                thread.join(timeout=0.3)
                assert thread.is_alive()

                # advance the clock directly -- no cluster.tick, so no
                # condition-variable notify fires anywhere.  The polled
                # wall slice must re-read timeout_now and observe the
                # jump on its own.
                clock.advance(10.0)
                status, _ = settle(thread, outcome)
                assert status == "timeout"
        finally:
            _gates[key].set()


class TestConcurrentWaiters:
    def test_different_deadlines_expire_independently(self):
        key = gated("edge-concurrent")
        clock = VirtualClock(drive_timeouts=True)
        try:
            with Cluster(1, registry=gate_registry(), clock=clock) as cluster:
                api = CNAPI.initialize(cluster)
                handle = start_gated_job(api, key)
                short, short_out = spawn_waiter(api, handle, timeout=5.0)
                long, long_out = spawn_waiter(api, handle, timeout=500.0)

                cluster.tick(6)  # past the short budget, far from the long
                status, _ = settle(short, short_out)
                assert status == "timeout"
                long.join(timeout=0.4)
                assert long.is_alive(), "long waiter expired on the short budget"

                # finishing the job wakes the surviving waiter with results
                _gates[key].set()
                status, results = settle(long, long_out)
                assert status == "ok"
                assert results == {"g": "ok"}
        finally:
            _gates[key].set()
