"""PERF -- chaos-layer cost and recovery yield.

Two claims the fault-tolerance layer must back up with numbers:

1. A *disabled* :class:`ChaosPolicy` (no rates, no scripted faults) is
   free: every instrumented fault site short-circuits on the ``enabled``
   flag, so wiring chaos through a production cluster must cost < 5%
   on the no-fault Floyd pipeline.
2. Under rate-based node crashes the recovery machinery (heartbeat
   detection, eviction, re-placement, message replay) converts a hard
   failure into a completion-rate curve: jobs still finish unless the
   crash takes out the managing node itself.  The sweep reports
   completion rate vs ``node_crash_rate``.
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
from repro.cn import ChaosPolicy, Cluster, CnError, JobError

N = 32
ROUNDS = 9


@pytest.fixture(scope="module")
def matrix():
    return random_weighted_graph(N, seed=13, density=0.3)


@pytest.fixture(scope="module")
def expected(matrix):
    return floyd_warshall_numpy(matrix)


def _one_runtime(cluster, matrix, expected):
    start = time.perf_counter()
    result, _ = run_parallel_floyd(
        matrix, n_workers=3, cluster=cluster
    )
    elapsed = time.perf_counter() - start
    assert np.allclose(result, expected)
    return elapsed


MAX_ROUNDS = 30  # adaptive ceiling when the box is under ambient load


def test_disabled_chaos_overhead_under_5pct(matrix, expected, report):
    """An inert ChaosPolicy on the hot paths (queue puts, bus deliveries,
    task starts) must stay within 5% of a chaos-free cluster.

    The two configurations run *interleaved* and are compared on the
    minimum of several rounds: min-of-k approaches the true codepath
    cost while medians of sequential blocks drift with ambient load
    (this suite shares a box with other benchmarks, often one core).
    If the estimate is over budget, more interleaved pairs are added
    up to MAX_ROUNDS before judging.  Telemetry is off in *both* arms:
    its cost is budgeted separately (PERF9) and the variable under test
    here is the chaos wiring alone.
    """
    idle = ChaosPolicy(seed=0)
    assert not idle.enabled
    bare_times, chaos_times = [], []
    with Cluster(
        4, registry=floyd_registry(), memory_per_node=64000, telemetry=None
    ) as bare:
        with Cluster(
            4,
            registry=floyd_registry(),
            memory_per_node=64000,
            chaos=idle,
            telemetry=None,
        ) as chaotic:
            # warm-up absorbs one-time costs (imports, store priming)
            _one_runtime(bare, matrix, expected)
            _one_runtime(chaotic, matrix, expected)
            while len(bare_times) < ROUNDS or (
                min(chaos_times) / min(bare_times) - 1.0 >= 0.05
                and len(bare_times) < MAX_ROUNDS
            ):
                # alternate which arm goes first so neither always sits
                # in the (noisier) second slot of its round
                if len(bare_times) % 2 == 0:
                    bare_times.append(_one_runtime(bare, matrix, expected))
                    chaos_times.append(_one_runtime(chaotic, matrix, expected))
                else:
                    chaos_times.append(_one_runtime(chaotic, matrix, expected))
                    bare_times.append(_one_runtime(bare, matrix, expected))
    baseline, instrumented = min(bare_times), min(chaos_times)
    overhead = instrumented / baseline - 1.0
    report.line(
        f"PERF -- disabled-chaos overhead, N={N}, min of {len(bare_times)}"
    )
    report.table(
        ["configuration", "best seconds"],
        [
            ["no chaos wired", f"{baseline:.4f}"],
            ["ChaosPolicy(enabled=False)", f"{instrumented:.4f}"],
            ["overhead", f"{overhead * 100:+.2f}%"],
        ],
    )
    assert idle.fault_summary() == []  # inert policy injected nothing
    assert overhead < 0.05, f"disabled chaos costs {overhead:.1%} (budget 5%)"


def test_completion_rate_vs_node_crash_rate(report):
    """Sweep rate-based node crashes; count runs that still produce the
    serial matrix.  The managing node (node0) is fair game, so the rate
    can never stay at 1.0 -- losing the manager loses the job."""
    small = random_weighted_graph(8, seed=3)
    serial = floyd_warshall_numpy(small)
    trials = 5
    rows = []
    for rate in (0.0, 0.05, 0.15, 0.3):
        completed = 0
        recovered_faults = 0
        for trial in range(trials):
            chaos = ChaosPolicy(seed=1000 * trial + 17, node_crash_rate=rate)
            with Cluster(4, registry=floyd_registry(), chaos=chaos) as cluster:
                cluster.start_heartbeats(interval=0.02)
                try:
                    result, _ = run_parallel_floyd(
                        small,
                        n_workers=3,
                        cluster=cluster,
                        retries=3,
                        timeout=8.0,
                    )
                except (CnError, JobError):
                    continue
                if np.allclose(result, serial):
                    completed += 1
                    recovered_faults += len(chaos.fault_summary())
        rows.append(
            [
                f"{rate:.2f}",
                f"{completed}/{trials}",
                f"{completed / trials:.2f}",
                str(recovered_faults),
            ]
        )
    report.line("PERF -- Floyd completion rate vs node_crash_rate")
    report.line(f"(4 nodes, 3 workers, retries=3, {trials} seeds per rate;")
    report.line(" 'faults survived' counts crashes in *completed* runs)")
    report.line()
    report.table(
        ["node_crash_rate", "completed", "rate", "faults survived"], rows
    )
    assert rows[0][1] == f"{trials}/{trials}"  # fault-free must be perfect
