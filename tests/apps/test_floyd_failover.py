"""Manager failover + task checkpointing, end to end on the guiding example.

The acceptance scenarios for the durability layer:

1. the JobManager node coordinating a parallel Floyd run is killed
   mid-algorithm; the deterministic successor adopts the job from the
   replicated journal and the run completes with output identical to the
   fault-free (serial) result;
2. a checkpointed TCTask whose node is killed after completing step *k*
   resumes from step *k* on the re-placed attempt -- verified through the
   execution trace (TASK_RESUMED events), not just the final matrix;
3. the whole recovery is deterministic: same seed + same kill schedule
   produce identical final task states and identical output across runs.

All scenarios gate the workers with events at a fixed step *k* and drive
failure detection with explicit ``Cluster.tick`` calls, so every run
fails (and recovers) at exactly the same point in the algorithm.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
)
from repro.apps.floyd.tasks import TCTask
from repro.cn import CNAPI, Cluster, TaskSpec, collect_trace

pytestmark = pytest.mark.chaos


class Gate:
    """Blocks every worker at the end of step ``k`` until released, and
    reports when ``expected`` workers have all arrived (each having just
    written its step-``k`` checkpoint)."""

    def __init__(self, k: int, expected: int) -> None:
        self.k = k
        self.expected = expected
        self.release = threading.Event()
        self.all_reached = threading.Event()
        self._lock = threading.Lock()
        self._count = 0

    def hit(self) -> None:
        with self._lock:
            self._count += 1
            if self._count >= self.expected:
                self.all_reached.set()
        self.release.wait(30)


def gated_worker(gate: Gate, every: int = 1) -> type:
    """A TCTask whose attempts pause at the gate step exactly once (new
    attempts started after the release never gate again)."""

    class GatedTCTask(TCTask):
        checkpoint_every = every

        def _after_step(self, k, ctx):
            if k == gate.k and not gate.release.is_set():
                gate.hit()

    return GatedTCTask


def gated_registry(gate: Gate, every: int = 1):
    registry = floyd_registry()
    registry.register_class(WORKER_JAR, WORKER_CLASS, gated_worker(gate, every))
    return registry


class TestManagerKilledMidFloyd:
    """Scenario 1: the coordinating JobManager dies mid-algorithm."""

    def test_successor_finishes_the_run_with_identical_output(self):
        n, workers, gate_k = 8, 3, 1
        matrix = random_weighted_graph(n, seed=11)
        gate = Gate(gate_k, expected=workers)
        cluster = Cluster(4, registry=gated_registry(gate))
        cluster.servers[0].accept_tasks = False  # node0: manager only
        outcome: dict = {}

        def run():
            try:
                outcome["result"], outcome["pipeline"] = run_parallel_floyd(
                    matrix, n_workers=workers, cluster=cluster,
                    retries=2, timeout=60.0,
                )
            except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- surfaced by the main thread
                outcome["error"] = exc

        try:
            with cluster:
                client = threading.Thread(target=run, daemon=True)
                client.start()
                # every worker has checkpointed step gate_k and is paused
                assert gate.all_reached.wait(30)
                cluster.kill_node("node0")  # the managing node
                cluster.tick(4)  # detect death; node1 adopts and re-places
                gate.release.set()  # zombies unblock and die fenced
                client.join(60)
                assert not client.is_alive()
            if "error" in outcome:
                raise outcome["error"]
            assert np.allclose(outcome["result"], floyd_warshall(matrix))
            successor = cluster.servers[1].jobmanager
            [job_id] = successor.jobs
            assert cluster.directory.lookup(job_id).manager is successor
            records = cluster.servers[1].journal.records(job_id)
            assert [r.kind for r in records].count("job-adopted") == 1
            # every worker resumed from its step-gate_k checkpoint rather
            # than recomputing from scratch
            [job_results] = outcome["pipeline"].job_results
            # fig3 naming: tctask0 is the splitter, tctask999 the joiner,
            # tctask1..N the workers
            resumed = {
                name: job_results[name]["resumed_from"]
                for name in (f"tctask{i}" for i in range(1, workers + 1))
            }
            assert resumed == {f"tctask{i}": gate_k for i in range(1, workers + 1)}
        finally:
            gate.release.set()


def build_floyd_job(api, source, workers, *, retries=2):
    """The Fig. 3 DAG assembled directly through the CN API (no pipeline),
    so the test owns the client queue and can inspect the trace."""
    handle = api.create_job("client", requirements={"prefer": "node0"})
    api.create_task(
        handle, TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS,
                         params=(source,))
    )
    names = [f"w{i}" for i in range(workers)]
    for i, name in enumerate(names):
        api.create_task(
            handle,
            TaskSpec(name=name, jar=WORKER_JAR, cls=WORKER_CLASS,
                     params=(i + 1,), depends=("split",), max_retries=retries),
        )
    api.create_task(
        handle, TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS,
                         params=("",), depends=tuple(names)),
    )
    api.start_job(handle)
    return handle


class TestCheckpointResume:
    """Scenario 2: a worker's node dies after step k; the re-placed
    attempt must resume from the step-k checkpoint (seen in the trace)."""

    def run_with_worker_kill(self, *, every=1, gate_k=2, n=6, workers=2,
                             matrix_seed=23, store_key="floyd-failover"):
        matrix = random_weighted_graph(n, seed=matrix_seed)
        source = store_matrix(f"{store_key}-{matrix_seed}-{every}", matrix)
        gate = Gate(gate_k, expected=workers)
        cluster = Cluster(3, registry=gated_registry(gate, every))
        cluster.servers[0].accept_tasks = False
        try:
            with cluster:
                api = CNAPI.initialize(cluster)
                handle = build_floyd_job(api, source, workers)
                assert gate.all_reached.wait(30)
                victim = handle.job.task("w0").node_name.split("/")[0]
                assert victim != "node0"  # a worker node, not the manager
                cluster.kill_node(victim)
                cluster.tick(3)  # detect; manager re-places the orphans
                gate.release.set()
                results = api.wait(handle, timeout=60)
                trace = collect_trace(handle)
                states = handle.job.states()
            assert np.allclose(results["join"], floyd_warshall(matrix))
            return results, trace, states
        finally:
            gate.release.set()

    def test_worker_resumes_from_step_k_checkpoint(self):
        gate_k = 2
        results, trace, _ = self.run_with_worker_kill(every=1, gate_k=gate_k)
        # the result says where the surviving attempt resumed...
        assert results["w0"]["resumed_from"] == gate_k
        # ...and the trace proves it: exactly one TASK_RESUMED event whose
        # tag is the checkpoint written after step k
        assert trace.task("w0").resumes == 1
        assert trace.task("w0").resumed_from == [gate_k]
        # the second attempt really started (recovery, not a lucky zombie)
        assert trace.task("w0").starts == 2
        assert trace.task("w0").final == "completed"

    def test_untouched_workers_never_resume(self):
        results, trace, _ = self.run_with_worker_kill(matrix_seed=29)
        assert results["w1"]["resumed_from"] is None
        assert trace.task("w1").resumes == 0

    def test_checkpointing_disabled_restarts_from_scratch(self):
        results, trace, _ = self.run_with_worker_kill(
            every=0, matrix_seed=31, store_key="floyd-nockpt"
        )
        # correct output either way, but no checkpoint meant no resume
        assert results["w0"]["resumed_from"] is None
        assert trace.task("w0").resumes == 0
        assert trace.task("w0").starts == 2


class TestRecoveryDeterminism:
    """Scenario 3 (property): same seed + same kill schedule => identical
    final task states, identical journal replay, identical output."""

    def run_with_manager_kill(self, matrix_seed, run_index, *, n=6, workers=2,
                              gate_k=1):
        from repro.cn import replay_job

        matrix = random_weighted_graph(n, seed=matrix_seed)
        source = store_matrix(
            f"floyd-det-{matrix_seed}-{run_index}", matrix
        )
        gate = Gate(gate_k, expected=workers)
        cluster = Cluster(3, registry=gated_registry(gate))
        cluster.servers[0].accept_tasks = False
        try:
            with cluster:
                api = CNAPI.initialize(cluster)
                handle = build_floyd_job(api, source, workers)
                assert gate.all_reached.wait(30)
                cluster.kill_node("node0")
                cluster.tick(4)
                gate.release.set()
                results = api.wait(handle, timeout=60)
                states = handle.job.states()
                replayed = replay_job(
                    handle.job_id,
                    cluster.servers[1].journal.records(handle.job_id),
                )
            return (
                np.array(results["join"]),
                states,
                replayed.states(),
                {name: r["resumed_from"] for name, r in results.items()
                 if name.startswith("w")},
            )
        finally:
            gate.release.set()

    @settings(max_examples=2, deadline=None)
    @given(matrix_seed=st.integers(min_value=1, max_value=100))
    def test_same_seed_same_states_and_output(self, matrix_seed):
        first = self.run_with_manager_kill(matrix_seed, 0)
        second = self.run_with_manager_kill(matrix_seed, 1)
        assert np.array_equal(first[0], second[0])  # bit-identical output
        assert first[1] == second[1]  # final task states
        assert first[2] == second[2]  # journal-replay states
        assert first[3] == second[3]  # resume points
        # and the output matches the fault-free serial baseline
        matrix = random_weighted_graph(6, seed=matrix_seed)
        assert np.allclose(first[0], floyd_warshall(matrix))
