"""Property-based scheduler tests: random DAGs, verified via traces.

For arbitrary dependency DAGs the runtime must (a) complete every task,
(b) never start a task before all of its dependencies completed, and
(c) under fault injection with sufficient retry budget, still complete
everything.  Event ordering is checked on the logical message serials
collected by :mod:`repro.cn.trace` -- no wall-clock flakiness.
"""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cn import (
    CNAPI,
    Cluster,
    ClusterConfig,
    Task,
    TaskFailedError,
    TaskRegistry,
    TaskSpec,
    collect_trace,
)
from repro.util import dag as dagutil


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


#: what the Recorded bodies of the running test did, in the order they
#: did it: ``(task, "start" | "end", time.monotonic_ns(), manager epoch)``
_events: list[tuple[str, str, int, int]] = []
#: the running test's script: a body waits for its task's gate (if it
#: has one) and raises while its task has failures left
_script: dict = {"gates": {}, "failures": {}, "lock": threading.Lock()}


def reset_script(*, gates=(), failures=None):
    _events.clear()
    _script["gates"] = {name: threading.Event() for name in gates}
    _script["failures"] = dict(failures or {})
    return _script["gates"]


class Recorded(Task):
    """Says when its body started and ended; scripted per task name."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        name = ctx.task_name
        _events.append((name, "start", time.monotonic_ns(), ctx.manager_epoch))
        gate = _script["gates"].get(name)
        if gate is not None:
            assert gate.wait(30), f"nobody opened the gate of {name}"
        with _script["lock"]:
            left = _script["failures"].get(name, 0)
            _script["failures"][name] = left - 1
        _events.append((name, "end", time.monotonic_ns(), ctx.manager_epoch))
        if left > 0:
            raise RuntimeError(f"scripted failure of {name}")
        return name


def stamps(phase, *, epoch=None):
    """``{task: [ns, ...]}`` of the recorded *phase* events."""
    found: dict[str, list[int]] = {}
    for name, what, ns, mepoch in list(_events):
        if what == phase and epoch in (None, mepoch):
            found.setdefault(name, []).append(ns)
    return found


def wait_until(condition, what, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def registry():
    r = TaskRegistry()
    r.register_class("echo.jar", "p.Echo", Echo)
    r.register_class("flaky.jar", "p.Flaky", FlakyOnce)
    r.register_class("rec.jar", "p.Recorded", Recorded)
    return r


def recorded(name, depends=(), retries=0):
    return TaskSpec(
        name=name, jar="rec.jar", cls="p.Recorded", depends=tuple(depends),
        memory=1, max_retries=retries,
    )


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


@st.composite
def shuffled_dags(draw):
    """``{task: depends}`` over 2-40 tasks named in roster order, with
    edges only forwards along a random *other* order -- so a task may
    depend on one created after it."""
    n = draw(st.integers(2, 40))
    topo = [f"t{i}" for i in draw(st.permutations(range(n)))]
    deps: dict[str, tuple[str, ...]] = {topo[0]: ()}
    for position in range(1, n):
        earlier = st.lists(st.sampled_from(topo[:position]), max_size=3, unique=True)
        deps[topo[position]] = tuple(draw(earlier))
    return {f"t{i}": deps[f"t{i}"] for i in range(n)}


@pytest.fixture(scope="class")
def cluster(request):
    with Cluster(
        3,
        registry=registry(),
        memory_per_node=10**6,
        slots_per_node=256,
        transport="inproc",  # FlakyOnce spends a budget kept in this process
        scheduler=getattr(request.cls, "scheduler", ClusterConfig.scheduler),
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


class TestTheDriveOnEveryShape:
    """Completion drives dependents by count (``Job.unblocked_by``); what
    the task bodies themselves saw is the evidence."""

    #: how the cluster cuts a create_tasks call into placement rounds
    scheduler = ClusterConfig.scheduler

    @given(shuffled_dags())
    # the subclass runs the same property under the other scheduler
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    def test_every_body_runs_once_and_after_its_dependencies(self, cluster, deps):
        assert set(dagutil.order(deps)) == set(deps)  # the oracle: it is a DAG
        reset_script()
        api = CNAPI.initialize(cluster)
        handle = api.create_job("drive")
        api.create_tasks(handle, [recorded(name, d) for name, d in deps.items()])
        api.start_job(handle)
        results = api.wait(handle, timeout=30)
        assert results == {name: name for name in deps}
        started, ended = stamps("start"), stamps("end")
        assert {name: len(ns) for name, ns in started.items()} == dict.fromkeys(deps, 1)
        for name, depends in deps.items():
            for dep in depends:
                assert ended[dep][0] <= started[name][0], (
                    f"{name} started before its dependency {dep} ended"
                )
        # the order the bodies started in is a linearisation of the DAG
        position = {name: i for i, name in enumerate(sorted(deps, key=lambda t: started[t]))}
        assert all(position[d] < position[t] for t, ds in deps.items() for d in ds)
        assert handle.job.finished
        assert handle.job.ready_tasks() == []

    def test_fail_fast_starts_no_transitive_dependent(self, cluster):
        deps = {
            "a": (), "b": ("a",), "c": ("b",), "d": ("c",), "e": ("a",),
            "f": ("e", "c"), "g": ("e",),
        }
        gates = reset_script(gates=["b", "e"], failures={"b": 1})
        api = CNAPI.initialize(cluster)
        handle = api.create_job("failfast")
        api.create_tasks(handle, [recorded(name, d) for name, d in deps.items()])
        api.start_job(handle)
        wait_until(lambda: {"b", "e"} <= set(stamps("start")), "b and e to start")
        gates["b"].set()
        with pytest.raises(TaskFailedError) as caught:
            api.wait(handle, timeout=30)
        assert caught.value.task_name == "b"
        # a sibling finishing after the failure wakes nobody either
        gates["e"].set()
        wait_until(lambda: "e" in stamps("end"), "e to finish")
        time.sleep(0.05)
        successors = {t: {s for s, ds in deps.items() if t in ds} for t in deps}
        doomed = dagutil.descendants(successors)["b"]
        assert doomed == {"c", "d", "f"}
        assert not doomed & set(stamps("start"))
        assert set(stamps("start")) <= {"a", "b", "e", "g"}

    def test_retried_task_wakes_its_dependents_once_after_the_second_attempt(
        self, cluster
    ):
        reset_script(failures={"f": 1})
        api = CNAPI.initialize(cluster)
        handle = api.create_job("retry")
        api.create_tasks(
            handle,
            [
                recorded("a"),
                recorded("f", ["a"], retries=1),
                recorded("d1", ["f"]),
                recorded("d2", ["f", "a"]),
            ],
        )
        api.start_job(handle)
        assert set(api.wait(handle, timeout=30)) == {"a", "f", "d1", "d2"}
        started, ended = stamps("start"), stamps("end")
        assert len(started["f"]) == 2
        for dependent in ("d1", "d2"):
            assert len(started[dependent]) == 1
            assert started[dependent][0] >= max(ended["f"])
        assert handle.job.ready_tasks() == []

    def test_task_added_under_a_running_dependency_starts_when_it_completes(
        self, cluster
    ):
        gates = reset_script(gates=["a"])
        api = CNAPI.initialize(cluster)
        handle = api.create_job("growth")
        api.create_tasks(handle, [recorded("a"), recorded("b", ["a"])])
        api.start_job(handle)
        wait_until(lambda: "a" in stamps("start"), "a to start")
        # the roster grows under a running task: the counts are re-derived
        # from the states the next time a completion asks
        api.create_task(handle, recorded("late", ["a"]))
        api.create_task(handle, recorded("later", ["late", "b"]))
        assert set(stamps("start")) == {"a"}
        gates["a"].set()
        assert set(api.wait(handle, timeout=30)) == {"a", "b", "late", "later"}
        started, ended = stamps("start"), stamps("end")
        assert all(len(ns) == 1 for ns in started.values())
        assert started["late"][0] >= ended["a"][0]
        assert started["later"][0] >= max(ended["late"][0], ended["b"][0])
        assert handle.job.ready_tasks() == []

    @pytest.mark.parametrize("completes", ["before create_task", "during placement"])
    def test_task_whose_dependency_is_already_done_is_started_by_its_creator(
        self, cluster, monkeypatch, completes
    ):
        gates = reset_script(gates=["a", "hold"])
        api = CNAPI.initialize(cluster)
        handle = api.create_job("window")
        api.create_tasks(
            handle, [recorded("a"), recorded("b", ["a"]), recorded("hold")]
        )
        api.start_job(handle)
        wait_until(lambda: {"a", "hold"} <= set(stamps("start")), "a and hold to start")

        def a_completes():
            # b has started, so a's completion has handed out its
            # dependents: it passed over any that was not CREATED by then
            gates["a"].set()
            wait_until(lambda: "b" in stamps("start"), "a's completion to be driven")

        if completes == "during placement":
            place = handle.manager._place

            def place_slowly(job, runtimes, placed):
                a_completes()  # late is in the roster, PENDING
                place(job, runtimes, placed)

            monkeypatch.setattr(handle.manager, "_place", place_slowly)
        else:
            a_completes()
        api.create_task(handle, recorded("late", ["a"]))
        # hold is still running: late does not wait for another completion
        wait_until(lambda: "late" in stamps("end"), "late to run")
        gates["hold"].set()
        assert set(api.wait(handle, timeout=30)) == {"a", "b", "hold", "late"}
        assert len(stamps("start")["late"]) == 1
        assert handle.job.ready_tasks() == []

    def test_adopted_fan_runs_what_was_unfinished_once_and_nothing_else(self):
        width = 40
        workers = [f"w{i}" for i in range(width)]
        early, held = workers[: width // 2], workers[width // 2 :]
        with Cluster(
            4,
            registry=registry(),
            memory_per_node=10**6,
            slots_per_node=256,
            transport="inproc",  # the bodies record into this process
            scheduler=self.scheduler,
        ) as fleet:
            fleet.servers[0].accept_tasks = False  # node0 only manages
            gates = reset_script(gates=workers)
            api = CNAPI.initialize(fleet)
            handle = api.create_job("fan", requirements={"prefer": "node0"})
            api.create_tasks(
                handle,
                [recorded("split")]
                + [recorded(w, ["split"]) for w in workers]
                + [recorded("join", workers)],
            )
            api.start_job(handle)
            assert handle.manager.name == "node0/jm"
            for name in early:
                gates[name].set()
            successor = fleet.servers[1].journal

            def journaled_complete():
                return {
                    r.data["task"]
                    for r in successor.records(handle.job_id)
                    if r.kind == "task-state" and r.data["state"] == "COMPLETED"
                }

            # the successor will believe its replica, so wait on that
            wait_until(
                lambda: journaled_complete() == {"split", *early},
                "half the fan to be journaled COMPLETED",
            )
            wait_until(lambda: len(stamps("start")) == width + 1, "the fan to start")
            fleet.kill_node("node0")
            fleet.tick(3)
            assert handle.manager.name == "node1/jm"
            assert handle.job.manager_epoch == 2
            for gate in gates.values():
                gate.set()
            results = api.wait(handle, timeout=30)
            assert set(results) == {"split", "join", *workers}
            first, second = stamps("start", epoch=1), stamps("start", epoch=2)
            # finished under the dead manager: never again
            assert not {"split", *early} & set(second)
            assert all(len(first[name]) == 1 for name in ("split", *early))
            # unfinished: exactly once under the successor
            assert {name: len(ns) for name, ns in second.items()} == dict.fromkeys(
                [*held, "join"], 1
            )
            assert "join" not in first
            assert min(second["join"]) >= max(
                ns for name in held for ns in stamps("end", epoch=2)[name]
            )
            assert handle.job.ready_tasks() == []


class TestTheDriveOnEveryShapeUnderBid(TestTheDriveOnEveryShape):
    """The same drive with each create_tasks call placed one round per
    task template instead of one per task."""

    scheduler = "bid"

