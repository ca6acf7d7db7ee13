"""The DAG drive stays linear in the roster (count-only, no wall clock).

A finished task wakes its dependents, by count: ``Job.unblocked_by``
hands ``JobManager._on_terminal`` the tasks one completion brought to
zero unmet dependencies, so a job claims each task once and scans its
roster once (in ``start_job``).  ``Job.ready_tasks()`` -- the definition
of readiness, read off the states -- is the oracle the counts are checked
against, and "is the job over" is a cursor over ``task_order``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import CNAPI, Cluster, TaskSpec, TaskState
from repro.cn.config import SCHEDULERS
from repro.cn.job import Job, TaskRuntime
from repro.cn.taskmanager import TaskManager
from repro.util import dag

from ..conftest import basic_registry
from .test_scheduling_properties import shuffled_dags


def echo(name, depends=()):
    return TaskSpec(
        name=name, jar="echo.jar", cls="test.Echo", depends=tuple(depends), memory=1
    )


def fan(width):
    workers = [f"w{i}" for i in range(width)]
    return (
        [echo("split")]
        + [echo(w, ["split"]) for w in workers]
        + [echo("join", workers)]
    )


def chain(length):
    return [echo(f"t{i}", [f"t{i - 1}"] if i else []) for i in range(length)]


@pytest.fixture
def calls(monkeypatch):
    """How often the run path claims a task and scans a roster."""
    seen = {"claims": 0, "scans": 0}
    real_start, real_ready = TaskManager.start_task, Job.ready_tasks

    def start_task(self, *args, **kwargs):
        seen["claims"] += 1  # under the GIL; the test reads it at quiescence
        return real_start(self, *args, **kwargs)

    def ready_tasks(self):
        seen["scans"] += 1
        return real_ready(self)

    monkeypatch.setattr(TaskManager, "start_task", start_task)
    monkeypatch.setattr(Job, "ready_tasks", ready_tasks)
    return seen


class TestOneClaimPerTask:
    """At the parent of this change the 152-task fan read about 7 700
    claim attempts and 153 roster scans per job."""

    @pytest.mark.parametrize("specs", [fan(150), chain(150)], ids=["fan", "chain"])
    def test_claims_equal_tasks_and_the_roster_is_scanned_once(self, calls, specs):
        for scheduler in SCHEDULERS:  # one placement round per task, or one
            calls.update(claims=0, scans=0)
            with Cluster(4, registry=basic_registry(), scheduler=scheduler) as cluster:
                api = CNAPI.initialize(cluster)
                handle = api.create_job("client")
                api.create_tasks(handle, specs)
                api.start_job(handle)
                results = api.wait(handle, timeout=120)
            assert set(results) == {spec.name for spec in specs}
            assert calls["claims"] == len(specs), scheduler
            assert calls["scans"] <= 1, scheduler


def placed_job(specs):
    """A Job whose tasks are all CREATED, as after placement."""
    job = Job("j", "client")
    for spec in specs:
        job.add_task(spec).state = TaskState.CREATED
    return job


def ready_names(job):
    return {runtime.name for runtime in job.ready_tasks()}


class CompletesAfterOneRead(TaskRuntime):
    """Reads RUNNING once, COMPLETED from then on: a completion landing
    between two reads of one derivation.  States flip under the
    TaskManager's lock, so ``Job._lock`` does not keep them still."""

    def __init__(self, spec):
        self._read = False
        super().__init__(spec)

    @property
    def state(self):
        if not self._read:
            self._read = True
            return TaskState.RUNNING
        return TaskState.COMPLETED

    @state.setter
    def state(self, value):
        pass  # TaskRuntime.__init__ assigns PENDING


class TestCountsAgreeWithTheStates:
    @given(shuffled_dags(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_completion_hands_out_what_ready_tasks_newly_reports(self, deps, rng):
        topo = dag.order(deps)
        # the roster grows while the job runs: the tail of the order
        # arrives later, one task at a time, between completions
        cut = rng.randint(1, len(topo))
        late = [echo(name, deps[name]) for name in topo[cut:]]
        job = placed_job([echo(n, d) for n, d in deps.items() if n in topo[:cut]])
        handed = ready_names(job)  # what start_job claims
        done = 0
        while handed or late:
            if late and (not handed or rng.random() < 0.3):
                spec = late.pop(0)
                job.add_task(spec).state = TaskState.CREATED
                # a task whose dependencies were all COMPLETED before it
                # arrived is woken by no completion: its creator starts it
                handed |= ready_names(job)
                continue
            name = rng.choice(sorted(handed))
            handed.discard(name)
            job.tasks[name].state = TaskState.COMPLETED
            done += 1
            woken = {runtime.name for runtime in job.unblocked_by(name)}
            assert not woken & handed, "a task was handed out twice"
            handed |= woken
            assert handed == ready_names(job)
            # a repeated callback decrements nothing
            assert {r.name for r in job.unblocked_by(name)} <= handed
        assert done == len(deps)
        assert ready_names(job) == set()
        assert job.all_terminal()

    def test_a_dependency_not_in_the_roster_yet_is_unmet(self):
        job = placed_job([echo("a"), echo("c", ["a", "b"])])
        job.tasks["a"].state = TaskState.COMPLETED
        assert job.unblocked_by("a") == []
        assert ready_names(job) == set()
        job.add_task(echo("b")).state = TaskState.COMPLETED
        assert [r.name for r in job.unblocked_by("b")] == ["c"]

    def test_a_completion_before_the_counts_exist_is_not_counted_twice(self):
        job = placed_job([echo("a"), echo("b"), echo("c", ["a", "b"])])
        job.tasks["a"].state = TaskState.COMPLETED
        job.tasks["b"].state = TaskState.COMPLETED
        # both states flipped before either callback ran: the first call
        # derives the counts from the states, so c stands at zero already
        assert [r.name for r in job.unblocked_by("a")] == ["c"]
        job.tasks["c"].state = TaskState.RUNNING  # claimed
        assert job.unblocked_by("b") == []

    @pytest.mark.parametrize(
        "order", [("x", "y", "d"), ("d", "y", "x")], ids=["before-d", "after-d"]
    )
    def test_a_completion_landing_mid_derivation_is_counted_once(self, order):
        # counting x as done for d but not for itself takes it off d twice
        # (d starts under a running y); the reverse never takes it off
        specs = {"x": echo("x"), "y": echo("y"), "d": echo("d", ["x", "y"])}
        job = placed_job([specs[name] for name in order])
        job.tasks["y"].state = TaskState.RUNNING
        job.tasks["x"] = CompletesAfterOneRead(specs["x"])
        job.dependents_of("x")  # derives the counts; x completes meanwhile
        assert job.tasks["x"].state is TaskState.COMPLETED
        assert job.unblocked_by("x") == []
        assert ready_names(job) == set()
        job.tasks["y"].state = TaskState.COMPLETED
        assert [r.name for r in job.unblocked_by("y")] == ["d"]

    def test_only_a_completed_task_unblocks(self):
        job = placed_job([echo("a"), echo("b", ["a"])])
        for state in (TaskState.RUNNING, TaskState.FAILED, TaskState.CANCELLED):
            job.tasks["a"].state = state
            assert job.unblocked_by("a") == []
        assert ready_names(job) == set()

    def test_adopted_roster_counts_from_the_restored_states(self):
        # adopt_job adds every task first and restores terminal states after
        job = Job("j", "client")
        for spec in fan(4):
            job.add_task(spec)
        for name in ("split", "w0", "w1"):
            job.tasks[name].state = TaskState.COMPLETED
        for name in ("w2", "w3", "join"):
            job.tasks[name].state = TaskState.CREATED
        assert ready_names(job) == {"w2", "w3"}
        job.tasks["w2"].state = TaskState.COMPLETED
        assert job.unblocked_by("w2") == []
        job.tasks["w3"].state = TaskState.COMPLETED
        assert [r.name for r in job.unblocked_by("w3")] == ["join"]


class TestJobOverIsACursor:
    def test_note_terminal_over_a_terminal_roster_reads_each_state_o1_times(
        self, monkeypatch
    ):
        """``adopt_job`` calls ``note_terminal`` for every terminal task of
        the journaled roster; with a scan per call that was T^2 / 2 state
        reads (20 000 at T=200)."""
        reads = [0]
        real = TaskState.terminal.fget

        def terminal(self):
            reads[0] += 1
            return real(self)

        monkeypatch.setattr(TaskState, "terminal", property(terminal))
        job = Job("j", "client")
        names = [f"t{i}" for i in range(200)]
        for name in names:
            job.add_task(echo(name)).state = TaskState.COMPLETED
        job.add_task(echo("last")).state = TaskState.RUNNING
        for name in names:
            job.note_terminal(name)
            assert not job.finished
        assert reads[0] <= 4 * len(names)
        job.tasks["last"].state = TaskState.COMPLETED
        job.note_terminal("last")
        assert job.finished

    def test_cursor_follows_a_growing_roster(self):
        job = Job("j", "client")
        job.add_task(echo("a")).state = TaskState.COMPLETED
        assert job.all_terminal()
        job.add_task(echo("b", ["a"]))
        assert not job.all_terminal()
        job.tasks["b"].state = TaskState.CANCELLED
        assert job.all_terminal()

    def test_out_of_order_completions(self):
        job = placed_job(chain(3))
        for name in ("t2", "t1"):
            job.tasks[name].state = TaskState.COMPLETED
            assert not job.all_terminal()
        job.tasks["t0"].state = TaskState.COMPLETED
        assert job.all_terminal()
