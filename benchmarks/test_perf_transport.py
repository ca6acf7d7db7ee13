"""PERF15 -- execution backends: proc workers vs the inproc default.

The transport subsystem's reason to exist: the inproc backend runs every
task body on coordinator threads, so numpy-ufunc kernels (Floyd's
``np.minimum`` relaxation holds the GIL) serialize no matter how many
workers the descriptor asks for.  ``Cluster(transport="proc")`` forks
one worker process per node and ships attempts over length-prefixed
pickle-5 frames, so the same unchanged CNX job uses real cores.

Two claims, two kinds of gate:

* **structural** (asserted everywhere): the proc runs execute in worker
  processes distinct from each other and from the coordinator, frames
  actually cross the per-node endpoints, and both backends produce the
  serial reference answer.
* **performance** (asserted only with >= 4 effective cores): with 4
  workers the proc backend completes the Floyd N=256 composition at
  least 2.5x faster than inproc.  On fewer cores there is no
  parallelism to buy and the wire is pure overhead, so the measurement
  is still recorded in ``BENCH_transport.json`` but not judged.

Timing protocol: interleaved rounds per backend, min-of-k compared
(as in PERF9 -- the minimum approaches the true cost under scheduler
noise).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall_numpy,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.apps.matmul import (
    matmul_registry,
    matmul_serial,
    run_parallel_matmul,
)
from repro.cn import Cluster

N = 256  # Floyd graph nodes (>= 256 per the PERF15 protocol)
MAT = 384  # matmul side length
WORKERS = 4
ROUNDS = 3
SPEEDUP_FLOOR = 2.5


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _cluster(backend: str, registry):
    return Cluster(4, registry=registry, memory_per_node=10**6, transport=backend)


def timed_floyd(backend: str, matrix, expected) -> tuple[float, dict]:
    with _cluster(backend, floyd_registry()) as cluster:
        started = time.perf_counter()
        result, _ = run_parallel_floyd(
            matrix, n_workers=WORKERS, cluster=cluster,
            timeout=300,
        )
        wall = time.perf_counter() - started
        assert np.allclose(result, expected)
        structure = _structure(backend, cluster)
    return wall, structure


def timed_matmul(backend: str, a, b, expected) -> tuple[float, dict]:
    with _cluster(backend, matmul_registry()) as cluster:
        started = time.perf_counter()
        result, _ = run_parallel_matmul(
            a, b, n_workers=WORKERS, cluster=cluster,
            timeout=300,
        )
        wall = time.perf_counter() - started
        assert np.allclose(result, expected)
        structure = _structure(backend, cluster)
    return wall, structure


def _structure(backend: str, cluster) -> dict:
    """Assert (and record) that execution landed where the backend says."""
    if backend == "proc":
        pids = cluster.transport.worker_pids()
        assert pids, "proc backend never forked a worker"
        assert os.getpid() not in pids.values(), "a 'worker' was the coordinator"
        assert len(set(pids.values())) == len(pids), "nodes shared a worker"
        stats = cluster.transport.stats()
        assert any(s["frames_sent"] > 0 for s in stats.values())
        # worker-side telemetry coalescing: metric/event frames merged
        # into batch frames instead of crossing the wire one by one
        coalesced = 0
        telemetry = cluster.telemetry
        if telemetry is not None:
            for node in pids:
                coalesced += int(
                    telemetry.metrics.counter(
                        "cn_transport_frames_coalesced_total", node=node
                    ).value
                )
        return {
            "worker_pids": sorted(pids.values()),
            "frames_sent": sum(s["frames_sent"] for s in stats.values()),
            "bytes_sent": sum(s["bytes_sent"] for s in stats.values()),
            "frames_coalesced": coalesced,
        }
    assert cluster.transport.stats() == {}
    return {
        "worker_pids": [],
        "frames_sent": 0,
        "bytes_sent": 0,
        "frames_coalesced": 0,
    }


def test_perf15_proc_backend_scaling(report, out_dir):
    cores = effective_cores()
    matrix = random_weighted_graph(N, seed=15)
    floyd_expected = floyd_warshall_numpy(matrix)
    rng = np.random.default_rng(15)
    a = rng.standard_normal((MAT, MAT)).tolist()
    b = rng.standard_normal((MAT, MAT)).tolist()
    mat_expected = matmul_serial(a, b)

    times: dict[str, dict[str, list[float]]] = {
        "floyd": {"inproc": [], "proc": []},
        "matmul": {"inproc": [], "proc": []},
    }
    structures: dict[str, dict] = {}
    for _ in range(ROUNDS):
        for backend in ("inproc", "proc"):
            wall, structure = timed_floyd(backend, matrix, floyd_expected)
            times["floyd"][backend].append(wall)
            structures[backend] = structure
            wall, _ = timed_matmul(backend, a, b, mat_expected)
            times["matmul"][backend].append(wall)

    best = {
        work: {backend: min(series) for backend, series in modes.items()}
        for work, modes in times.items()
    }
    speedup = {
        work: best[work]["inproc"] / best[work]["proc"] for work in best
    }

    report.line(f"PERF15: execution backends ({cores} effective core(s))")
    report.line(
        f"Floyd N={N}, matmul {MAT}x{MAT}, {WORKERS} workers, "
        f"min of {ROUNDS} interleaved rounds"
    )
    report.line()
    report.table(
        ["workload", "inproc", "proc", "speedup"],
        [
            [
                work,
                f"{best[work]['inproc'] * 1e3:.0f} ms",
                f"{best[work]['proc'] * 1e3:.0f} ms",
                f"{speedup[work]:.2f}x",
            ]
            for work in ("floyd", "matmul")
        ],
    )
    report.line()
    report.line(
        f"proc worker pids: {structures['proc']['worker_pids']} "
        f"(coordinator {os.getpid()})"
    )
    frames = structures["proc"]["frames_sent"]
    coalesced = structures["proc"]["frames_coalesced"]
    report.line(
        f"telemetry coalescing: {frames} frames on the wire vs "
        f"{frames + coalesced} without worker-side batching "
        f"({coalesced} metric/event frames merged)"
    )

    (out_dir / "BENCH_transport.json").write_text(
        json.dumps(
            {
                "experiment": "PERF15",
                "effective_cores": cores,
                "n_floyd": N,
                "n_matmul": MAT,
                "workers": WORKERS,
                "rounds": ROUNDS,
                "times_s": times,
                "best_s": best,
                "speedup": speedup,
                "structure": structures,
                "speedup_floor": SPEEDUP_FLOOR,
                "speedup_judged": cores >= WORKERS,
            },
            indent=2,
        )
        + "\n"
    )

    if cores >= WORKERS:
        assert speedup["floyd"] >= SPEEDUP_FLOOR, (
            f"proc backend only {speedup['floyd']:.2f}x faster on Floyd "
            f"with {cores} cores (floor {SPEEDUP_FLOOR}x)"
        )
    else:
        report.line(
            f"speedup not judged: {cores} effective core(s) < {WORKERS} "
            "workers (wire overhead with no parallelism to buy)"
        )
