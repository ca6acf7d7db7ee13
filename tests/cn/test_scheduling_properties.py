"""Property-based scheduler tests: random DAGs, verified via traces.

For arbitrary dependency DAGs the runtime must (a) complete every task,
(b) never start a task before all of its dependencies completed, and
(c) under fault injection with sufficient retry budget, still complete
everything.  Event ordering is checked on the logical message serials
collected by :mod:`repro.cn.trace` -- no wall-clock flakiness.
"""

import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import (
    CNAPI,
    Cluster,
    Task,
    TaskRegistry,
    TaskSpec,
    collect_trace,
)


class Echo(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.task_name


_flaky_state: dict = {"budget": {}, "lock": threading.Lock()}


class FlakyOnce(Task):
    """Fails the first attempt of each task name marked in the budget."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        with _flaky_state["lock"]:
            remaining = _flaky_state["budget"].get(ctx.task_name, 0)
            if remaining > 0:
                _flaky_state["budget"][ctx.task_name] = remaining - 1
                raise RuntimeError("injected")
        return ctx.task_name


def registry():
    r = TaskRegistry()
    r.register_class("echo.jar", "p.Echo", Echo)
    r.register_class("flaky.jar", "p.Flaky", FlakyOnce)
    return r


@st.composite
def random_dags(draw):
    """(n, edges) with edges only from lower to higher indices (a DAG)."""
    n = draw(st.integers(1, 10))
    edges: set[tuple[int, int]] = set()
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.add((i, j))
    return n, sorted(edges)


@pytest.fixture(scope="module")
def cluster():
    with Cluster(
        3,
        registry=registry(),
        memory_per_node=10**6,
        slots_per_node=256,
        transport="inproc",  # FlakyOnce spends a budget kept in this process
    ) as c:
        yield c


def run_dag(cluster, n, edges, *, jar="echo.jar", cls="p.Echo", retries=0):
    deps: dict[int, list[str]] = {j: [] for j in range(n)}
    for i, j in edges:
        deps[j].append(f"t{i}")
    api = CNAPI.initialize(cluster)
    handle = api.create_job("propdag")
    for j in range(n):
        api.create_task(
            handle,
            TaskSpec(
                name=f"t{j}", jar=jar, cls=cls, depends=tuple(deps[j]),
                memory=1, max_retries=retries,
            ),
        )
    api.start_job(handle)
    results = api.wait(handle, timeout=30)
    return handle, results


class TestRandomDags:
    @given(random_dags())
    @settings(max_examples=25, deadline=None)
    def test_every_task_completes(self, cluster, dag):
        n, edges = dag
        _, results = run_dag(cluster, n, edges)
        assert set(results) == {f"t{j}" for j in range(n)}

    @given(random_dags())
    @settings(max_examples=25, deadline=None)
    def test_dependency_order_in_trace(self, cluster, dag):
        n, edges = dag
        handle, _ = run_dag(cluster, n, edges)
        trace = collect_trace(handle)
        started = {}
        completed = {}
        for event in trace.events:
            if event.kind == "started":
                started.setdefault(event.task, event.serial)
            elif event.kind == "completed":
                completed[event.task] = event.serial
        for i, j in edges:
            assert completed[f"t{i}"] < started[f"t{j}"], (
                f"t{j} started (serial {started[f't{j}']}) before its "
                f"dependency t{i} completed (serial {completed[f't{i}']})"
            )
        assert trace.consistency_problems() == []

    @given(random_dags(), st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    def test_fault_injection_with_budget(self, cluster, dag, n_flaky):
        n, edges = dag
        flaky_names = [f"t{j}" for j in range(min(n_flaky, n))]
        with _flaky_state["lock"]:
            _flaky_state["budget"] = {name: 1 for name in flaky_names}
        handle, results = run_dag(
            cluster, n, edges, jar="flaky.jar", cls="p.Flaky", retries=1
        )
        assert set(results) == {f"t{j}" for j in range(n)}
        trace = collect_trace(handle)
        for name in flaky_names:
            assert trace.tasks[name].retries == 1
            assert trace.tasks[name].final == "completed"
