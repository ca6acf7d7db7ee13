"""PERF12 -- runtime lock-verification cost (``verified_locks()``).

The conclint runtime verifier (PR 6) reroutes every runtime lock through
:func:`repro.analysis.conc.runtime.make_lock`.  Its contract has two
halves, and this benchmark gates both:

* **Off is free.** With no verifier installed, ``make_lock`` returns a
  *plain* ``threading.Lock``/``RLock`` -- the identical object a direct
  constructor call yields, so the disabled hot path cannot regress.
  That is asserted structurally (the returned object IS a raw threading
  primitive, no wrapper) and timed: an acquire/release microbenchmark of
  a ``make_lock`` lock versus a hand-built one must agree within the 5%
  budget (they run the same C code; the gate bounds measurement noise
  plus any accidental future wrapping).

* **On is affordable.** ``verified_locks()`` instruments every lock
  with per-thread stack bookkeeping and graph recording.  The PERF11
  Floyd broadcast workload is re-run with the verifier on and off,
  interleaved min-of-k (the same timing protocol as PERF9), and the
  observed slowdown is *reported* into ``BENCH_locking.json`` -- the
  verifier is a debugging tool, so its cost is documented rather than
  gated, but the run must still produce a correct result and a
  cycle-free lock-order graph.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.analysis.conc.runtime import make_lock, verified_locks
from repro.apps.floyd import floyd_registry, floyd_warshall_numpy, random_weighted_graph
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
)
from repro.cn import CNAPI, Cluster, TaskSpec

N = 96  # graph nodes, as in PERF9
WORKERS = 8
ROUNDS = 3
MAX_ROUNDS = 15
MICRO_OPS = 50_000


def test_disabled_make_lock_is_a_plain_primitive():
    """Structural zero-cost proof: with no verifier installed the factory
    hands back raw threading primitives, not wrappers."""
    assert type(make_lock("X._lock")) is type(threading.RLock())
    assert type(make_lock("X._lock", reentrant=False)) is type(threading.Lock())


def _time_ops(lock, ops: int = MICRO_OPS) -> float:
    started = time.perf_counter()
    for _ in range(ops):
        lock.acquire()
        lock.release()
    return time.perf_counter() - started


def test_disabled_acquire_release_within_budget(report):
    """min-of-k acquire/release timing: make_lock(off) vs a hand-built
    RLock must agree within 5% (same primitive, so this bounds noise)."""
    factory_lock = make_lock("PERF12._lock")
    plain_lock = threading.RLock()
    factory_times, plain_times = [], []

    def one_round():
        factory_times.append(_time_ops(factory_lock))
        plain_times.append(_time_ops(plain_lock))

    for _ in range(ROUNDS):
        one_round()
    while (
        len(factory_times) < MAX_ROUNDS
        and min(factory_times) / min(plain_times) - 1.0 >= 0.05
    ):
        one_round()

    overhead = min(factory_times) / min(plain_times) - 1.0
    report.line(f"PERF12 -- make_lock(off) acquire/release x {MICRO_OPS}")
    report.line()
    report.table(
        ["rounds", "make_lock best", "plain best", "overhead"],
        [[len(factory_times), f"{min(factory_times) * 1e3:.2f} ms",
          f"{min(plain_times) * 1e3:.2f} ms", f"{overhead:+.1%}"]],
    )
    assert overhead < 0.05, (
        f"disabled make_lock costs {overhead:.1%} over a plain RLock"
    )


def run_floyd(matrix, store_key: str, *, verify: bool):
    """One Floyd broadcast job; returns (wall seconds, lock report|None)."""
    source = store_matrix(store_key, matrix)
    with (verified_locks() if verify else nullcontext()) as verifier, Cluster(
        4, registry=floyd_registry(), memory_per_node=10**6
    ) as cluster:
        api = CNAPI.initialize(cluster)
        started = time.perf_counter()
        handle = api.create_job("perf12")
        api.create_task(
            handle,
            TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS, params=(source,)),
        )
        names = [f"w{i}" for i in range(WORKERS)]
        for i, name in enumerate(names):
            api.create_task(
                handle,
                TaskSpec(name=name, jar=WORKER_JAR, cls=WORKER_CLASS,
                         params=(i + 1,), depends=("split",)),
            )
        api.create_task(
            handle,
            TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS,
                     params=("",), depends=tuple(names)),
        )
        api.start_job(handle)
        results = api.wait(handle, timeout=120)
        wall = time.perf_counter() - started
        assert np.allclose(results["join"], floyd_warshall_numpy(matrix))
    return wall, verifier.report() if verifier else None


def test_verifier_on_slowdown_reported(report, out_dir):
    matrix = random_weighted_graph(N, seed=12, density=0.2)
    run_floyd(matrix, "perf12-warm", verify=False)  # warm caches/imports
    off_times, on_times = [], []
    lock_report = None

    for round_no in range(ROUNDS):  # interleave to share ambient noise
        wall_off, _ = run_floyd(matrix, f"perf12-off-{round_no}", verify=False)
        off_times.append(wall_off)
        wall_on, lock_report = run_floyd(
            matrix, f"perf12-on-{round_no}", verify=True
        )
        on_times.append(wall_on)

    best_off, best_on = min(off_times), min(on_times)
    slowdown = best_on / best_off - 1.0

    # the instrumented run must stay a correct, cycle-free workload
    assert lock_report is not None
    assert lock_report["edges"], "instrumented Floyd run recorded no nesting"
    assert lock_report["cycles"] == []
    top_held = sorted(
        lock_report["held"].items(),
        key=lambda item: item[1]["total_held_s"],
        reverse=True,
    )[:5]

    report.line(f"PERF12 -- lock verifier, Floyd N={N}, {WORKERS} workers")
    report.line()
    report.table(
        ["rounds", "best off", "best on", "verifier slowdown"],
        [[len(off_times), f"{best_off * 1e3:.1f} ms", f"{best_on * 1e3:.1f} ms",
          f"{slowdown:+.1%}"]],
    )
    report.line()
    report.line("hottest locks by total held time (verifier on):")
    report.table(
        ["lock", "acquisitions", "total held", "max held"],
        [[name, s["acquisitions"], f"{s['total_held_s'] * 1e3:.1f} ms",
          f"{s['max_held_s'] * 1e3:.2f} ms"] for name, s in top_held],
    )

    (out_dir / "BENCH_locking.json").write_text(
        json.dumps(
            {
                "experiment": "PERF12",
                "n": N,
                "workers": WORKERS,
                "rounds": len(off_times),
                "verify_off_s": off_times,
                "verify_on_s": on_times,
                "best_off_s": best_off,
                "best_on_s": best_on,
                "verifier_slowdown_pct": slowdown * 100,
                "lock_order_edges": lock_report["edges"],
                "cycles": lock_report["cycles"],
                "held": lock_report["held"],
            },
            indent=2,
        )
        + "\n"
    )
