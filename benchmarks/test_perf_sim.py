"""PERF14 -- simulation throughput and checksum-transport cost.

Numbers the deterministic-simulation layer must back up:

1. **Schedule throughput.**  Nightly fuzzing only earns its keep if a
   budgeted wall-clock window covers many schedules.  The dominant
   *fixed* cost per schedule is generation + oracle evaluation (the
   cluster run itself scales with the faults injected, which is the
   point of fuzzing), so this measures that fixed pipeline against the
   artifacts of one real benign N=64 harness run: generate a fresh
   schedule, graft it onto the recorded run, evaluate every oracle.
   Budget: >= 20 schedules/sec.
2. **Disabled-checksum overhead.**  With ``checksums=False`` (the
   production default) frames are never sealed, so the entire residual
   cost of the corruption-safety slice is the dequeue-time
   verification hook short-circuiting on ``digest is None``.  That
   hook must stay within 5% of the unhooked queue hot path.
3. **Enabled-checksum cost**, reported for the record: CRC32 over a
   pickled payload is real work per frame, priced end-to-end on the
   Floyd pipeline.  Enabling checksums is a per-cluster opt-in
   precisely because this line is not free.
"""

from __future__ import annotations

import dataclasses
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
from repro.cn.messages import Message
from repro.cn.queues import MessageQueue
from repro.sim import Schedule, Simulation, generate, run_oracles

N = 32
ROUNDS = 9
MAX_ROUNDS = 30  # adaptive ceiling when the box is under ambient load


# -- schedule throughput -------------------------------------------------------


@pytest.fixture(scope="module")
def benign_run():
    """One real harness run (Floyd N=64, no faults) reused as the
    oracle-evaluation substrate for every generated schedule."""
    result = Simulation(0, Schedule(seed=0), n=64, workers=3, nodes=4).run()
    assert result.done, result.error
    assert run_oracles(result) == {}
    return result


def test_schedule_generation_and_oracle_throughput(benign_run, report):
    schedules = 120
    start = time.perf_counter()
    for seed in range(schedules):
        schedule = generate(seed)
        grafted = dataclasses.replace(benign_run, seed=seed, schedule=schedule)
        findings = run_oracles(grafted)
        # a benign run never violates the schedule-independent oracles
        assert "exactly-once-result" not in findings
    elapsed = time.perf_counter() - start
    rate = schedules / elapsed
    report.line("PERF14 -- schedule generation + oracle evaluation")
    report.line(f"(substrate: one benign Floyd N=64 run, {schedules} schedules)")
    report.table(
        ["metric", "value"],
        [
            ["schedules", str(schedules)],
            ["elapsed s", f"{elapsed:.3f}"],
            ["schedules/sec", f"{rate:.1f}"],
        ],
    )
    assert rate >= 20, f"{rate:.1f} schedules/sec (budget: >= 20)"


# -- disabled-checksum hot path ------------------------------------------------


def _pump(queue: MessageQueue, frames: int) -> float:
    start = time.perf_counter()
    for i in range(frames):
        queue.put(Message.user("s", queue.owner, i))
        queue.get(timeout=1.0)
    return time.perf_counter() - start


def test_disabled_checksum_overhead_under_5pct(report):
    """The verification hook, with nothing to verify, must be free.

    Interleaved min-of-k over the queue put/get hot path: the baseline
    queue has verification off (production default); the instrumented
    queue has verification *on* but sees unsealed frames, so every
    dequeue pays exactly the disabled-path branch (``digest is None``
    short-circuit) and nothing else.  min-of-k approaches the true
    codepath cost on a shared box; extra rounds are added before
    judging if the estimate starts over budget.
    """
    frames = 4000
    bare = MessageQueue("/bare")
    hooked = MessageQueue("/hooked", verify_digests=True)
    _pump(bare, frames)  # warm-up absorbs allocator/import noise
    _pump(hooked, frames)
    bare_times: list[float] = []
    hooked_times: list[float] = []
    while len(bare_times) < ROUNDS or (
        min(hooked_times) / min(bare_times) - 1.0 >= 0.05
        and len(bare_times) < MAX_ROUNDS
    ):
        if len(bare_times) % 2 == 0:
            bare_times.append(_pump(bare, frames))
            hooked_times.append(_pump(hooked, frames))
        else:
            hooked_times.append(_pump(hooked, frames))
            bare_times.append(_pump(bare, frames))
    baseline, instrumented = min(bare_times), min(hooked_times)
    overhead = instrumented / baseline - 1.0
    report.line(
        f"PERF14 -- disabled-checksum queue overhead, {frames} frames, "
        f"min of {len(bare_times)}"
    )
    report.table(
        ["configuration", "best seconds"],
        [
            ["verification off", f"{baseline:.4f}"],
            ["verification on, unsealed frames", f"{instrumented:.4f}"],
            ["overhead", f"{overhead * 100:+.2f}%"],
        ],
    )
    assert hooked.poisoned == 0
    assert overhead < 0.05, f"disabled checksums cost {overhead:.1%} (budget 5%)"


# -- enabled-checksum cost, for the record -------------------------------------


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


def test_enabled_checksum_cost_reported(matrix, expected, report):
    """Price the opt-in: seal (pickle + CRC32) on every fan-out message
    and verify on every dequeue, end-to-end on Floyd N=32.  Reported,
    not budgeted -- small frames make the relative cost look steep and
    the absolute cost is microseconds per message; the assertions here
    only guard that both arms compute the right matrix and that no
    frame was quarantined on an uncorrupted link."""
    off_times, on_times = [], []
    with Cluster(
        4, registry=floyd_registry(), memory_per_node=64000, telemetry=None
    ) as plain:
        with Cluster(
            4,
            registry=floyd_registry(),
            memory_per_node=64000,
            telemetry=None,
            checksums=True,
        ) as sealed:
            _one_runtime(plain, matrix, expected)  # warm-up
            _one_runtime(sealed, matrix, expected)
            for i in range(ROUNDS):
                if i % 2 == 0:
                    off_times.append(_one_runtime(plain, matrix, expected))
                    on_times.append(_one_runtime(sealed, matrix, expected))
                else:
                    on_times.append(_one_runtime(sealed, matrix, expected))
                    off_times.append(_one_runtime(plain, matrix, expected))
            poisoned = sum(
                server.taskmanager.queue_poisoned() for server in sealed.servers
            )
    baseline, instrumented = min(off_times), min(on_times)
    report.line(f"PERF14 -- enabled-checksum end-to-end cost, N={N}")
    report.table(
        ["configuration", "best seconds"],
        [
            ["checksums=False", f"{baseline:.4f}"],
            ["checksums=True", f"{instrumented:.4f}"],
            ["cost of sealing", f"{(instrumented / baseline - 1) * 100:+.2f}%"],
        ],
    )
    assert poisoned == 0, "clean link must not quarantine frames"
