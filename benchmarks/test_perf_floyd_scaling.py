"""PERF1 -- implied by paper section 2: parallel Floyd scaling.

"The algorithm can use at most N processors or tasks where N is the
number of nodes in the graph."  The paper reports no numbers; the
*shape* to reproduce is that the CN composition executes correctly at
every worker count up to N, that per-worker row blocks shrink as workers
grow, and (for the simulated thread runtime) how wall-clock varies with
worker count.  Absolute speedups are NOT expected to match a 2007
Ethernet cluster: our tasks are Python threads sharing one GIL, so the
numpy row kernel scales only until coordination overhead dominates --
EXPERIMENTS.md discusses the shape.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall_numpy,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.cn import Cluster

N = 96


@pytest.fixture(scope="module")
def matrix():
    return random_weighted_graph(N, seed=424242, density=0.2)


@pytest.fixture(scope="module")
def expected(matrix):
    return floyd_warshall_numpy(matrix)


@pytest.fixture(scope="module")
def cluster():
    with Cluster(
        4, registry=floyd_registry(), memory_per_node=256000, slots_per_node=512
    ) as c:
        yield c


@pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
def test_bench_floyd_workers(benchmark, matrix, expected, cluster, workers):
    """One benchmark point per worker count (the scaling series)."""

    def run_once():
        result, _ = run_parallel_floyd(
            matrix, n_workers=workers, cluster=cluster
        )
        return result

    result = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert np.allclose(result, expected)


def test_scaling_series_report(matrix, expected, cluster, report):
    """Manual sweep with the serial baseline, written to the report file."""
    serial_start = time.perf_counter()
    floyd_warshall_numpy(matrix)
    serial_seconds = time.perf_counter() - serial_start
    rows = [["serial numpy", f"{serial_seconds:.4f}", "1.00x", "-"]]
    for workers in (1, 2, 4, 8, 16):
        start = time.perf_counter()
        result, _ = run_parallel_floyd(
            matrix, n_workers=workers, cluster=cluster
        )
        elapsed = time.perf_counter() - start
        assert np.allclose(result, expected)
        rows.append(
            [
                f"CN {workers} worker(s)",
                f"{elapsed:.4f}",
                f"{serial_seconds / elapsed:.2f}x",
                f"{(N + workers - 1) // workers} rows/worker",
            ]
        )
    report.line(f"PERF1 -- parallel Floyd scaling, N={N} graph nodes")
    report.line("(thread-simulated cluster: expect overhead vs serial numpy;")
    report.line(" the reproduced shape is correctness at every worker count")
    report.line(" and shrinking per-worker row blocks)")
    report.line()
    report.table(["configuration", "seconds", "vs serial", "decomposition"], rows)


def test_worker_count_caps_at_n_rows(cluster):
    """Per the paper: at most N tasks are useful; surplus workers must be
    harmless (empty row ranges)."""
    small = random_weighted_graph(4, seed=7)
    result, _ = run_parallel_floyd(
        small, n_workers=9, cluster=cluster
    )
    assert np.allclose(result, floyd_warshall_numpy(small))
