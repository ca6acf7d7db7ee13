"""Chaos e2e: the guiding example survives injected node and task crashes.

The acceptance scenario for the fault-tolerance layer: a fixed-seed
parallel Floyd run rides out one scripted node crash (taking a worker
down mid-job) plus one scripted task crash (the splitter's first
attempt), and still converges to the serial floyd_warshall matrix.
Rerunning with the same seed injects the identical fault set.
"""

import numpy as np
import pytest

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.cn import ChaosPolicy, Cluster

pytestmark = pytest.mark.chaos


def run_chaotic_floyd(script, *, n=8, matrix_seed=11, chaos_seed=7):
    """One full pipeline run on a fresh 4-node chaos cluster; *script*
    programs the ChaosPolicy before the cluster starts."""
    chaos = ChaosPolicy(seed=chaos_seed)
    script(chaos)
    matrix = random_weighted_graph(n, seed=matrix_seed)
    with Cluster(4, registry=floyd_registry(), chaos=chaos, failure_k=2) as cluster:
        cluster.start_heartbeats(interval=0.02)
        result, _ = run_parallel_floyd(
            matrix,
            n_workers=3,
            cluster=cluster,
            retries=2,
            timeout=60.0,
        )
    return matrix, result, chaos


class TestFloydUnderChaos:
    def test_survives_node_crash_and_splitter_crash(self):
        # node0 hosts the job manager (manager-offer tiebreak) and the
        # splitter; node2 hosts a worker -- killing it exercises the full
        # detect / evict / re-place / replay path while the splitter
        # crash exercises the plain retry path, in the same job
        def script(chaos):
            chaos.crash_task("tctask0", attempt=1)
            chaos.crash_node("node2", after_starts=1)

        matrix, result, chaos = run_chaotic_floyd(script)
        assert np.allclose(result, floyd_warshall(matrix))
        kinds = {record[0] for record in chaos.fault_summary()}
        assert kinds == {"task-crash", "node-crash"}

    def test_survives_worker_node_crash_alone(self):
        matrix, result, chaos = run_chaotic_floyd(
            lambda chaos: chaos.crash_node("node3", after_starts=1)
        )
        assert np.allclose(result, floyd_warshall(matrix))
        assert chaos.fault_summary() == [("node-crash", "node", "node3")]

    def test_same_seed_same_fault_sequence(self):
        def script(chaos):
            chaos.crash_task("tctask0", attempt=1)
            chaos.crash_node("node2", after_starts=1)

        runs = [run_chaotic_floyd(script) for _ in range(2)]
        summaries = [chaos.fault_summary() for _, _, chaos in runs]
        assert summaries[0] == summaries[1]
        assert np.allclose(runs[0][1], runs[1][1])
