"""PERF13 -- overload protection under saturation storms.

Four gates, all asserted here and in CI:

* **Bounded admission latency**: during a 10x submission storm the p99
  latency of a *rejected* ``Portal.submit`` stays bounded (the decision
  is O(1) token-bucket + saturation arithmetic and runs before XMI
  parsing), no matter how congested the pipeline is.
* **Bounded resident depth**: with ``shed_oldest`` queues of capacity C,
  a message storm against a stalled consumer never holds more than
  C + a small chaos-delay allowance resident -- backpressure converts
  unbounded growth into journaled sheds.
* **Zero journaled-then-lost**: every shed serial is present among the
  write-ahead ledgered deliveries of the replayed journal, so the PR 2
  delivery ledger can re-offer every evicted message.
* **Disabled-mode overhead**: a Floyd run on bounded-but-never-tripping
  queues stays within 5% of the unbounded default (interleaved
  min-of-k), so overload protection is free until you turn it on.

``BENCH_overload.json`` aggregates the storm, shedding, goodput, and
overhead numbers.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

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
from repro.apps.montecarlo import build_pi_model, register_pi_tasks
from repro.cn import (
    CNAPI,
    AdmissionController,
    ChaosPolicy,
    Cluster,
    Task,
    TaskRegistry,
    TaskSpec,
    replay_job,
)
from repro.cn.portal import Portal
from repro.core.xmi import write_graph

RESULTS: dict = {"experiment": "PERF13"}

BASELINE_JOBS = 5
STORM_TICK = 1
STORM_SIZE = 50  # ~10x the per-tenant burst below
STORM_BURST = 5.0
QUEUE_CAP = 16
STORM_MESSAGES = 400
FLOYD_N = 96
FLOYD_WORKERS = 6
ROUNDS = 3
MAX_ROUNDS = 6


def pi_xmi():
    return write_graph(build_pi_model(samples=2000, seed=1, n_workers=2))


# -- storm: admission latency + goodput ---------------------------------------


def run_portal_jobs(portal, count, tenant="base"):
    started = time.perf_counter()
    for _ in range(count):
        submission = portal.submit(pi_xmi(), tenant=tenant)
        assert submission.status == "done"
    return time.perf_counter() - started


def test_storm_admission_latency_and_goodput(report):
    # baseline: no limits at all (the seed portal)
    registry = register_pi_tasks(TaskRegistry())
    with Cluster(2, registry=registry, memory_per_node=64000) as cluster:
        portal = Portal(cluster)
        portal.submit(pi_xmi())  # warm imports/transform caches
        baseline_wall = run_portal_jobs(portal, BASELINE_JOBS)

    # guarded at 1x: generous quota, same load -- goodput within 15%
    registry = register_pi_tasks(TaskRegistry())
    with Cluster(2, registry=registry, memory_per_node=64000) as cluster:
        portal = Portal(
            cluster,
            admission=AdmissionController(cluster, rate=100.0, burst=200.0),
        )
        portal.submit(pi_xmi())
        guarded_wall = run_portal_jobs(portal, BASELINE_JOBS, tenant="steady")
        goodput_penalty = guarded_wall / baseline_wall - 1.0

        # 10x storm against a tight per-tenant bucket, scheduled through
        # the chaos overload mode so storm timing is scripted state
        chaos = ChaosPolicy().schedule_burst(STORM_TICK, STORM_SIZE)
        portal.admission = AdmissionController(
            cluster, rate=0.5, burst=STORM_BURST
        )
        storm = chaos.bursts_due(STORM_TICK)
        assert storm == STORM_SIZE
        reject_latencies, admitted = [], 0
        for _ in range(storm):
            started = time.perf_counter()
            submission = portal.submit(pi_xmi(), tenant="storm")
            elapsed = time.perf_counter() - started
            if submission.status == "throttled":
                reject_latencies.append(elapsed)
            else:
                assert submission.status == "done"
                admitted += 1

    assert admitted <= STORM_BURST + 1
    rejected = len(reject_latencies)
    assert rejected >= STORM_SIZE - STORM_BURST - 1
    reject_latencies.sort()
    p99 = reject_latencies[min(rejected - 1, int(rejected * 0.99))]
    # O(1) decision: bounded regardless of pipeline congestion (generous
    # CI allowance; typical is tens of microseconds)
    assert p99 < 0.05, f"p99 rejected-submit latency {p99 * 1e3:.2f} ms"
    assert goodput_penalty < 0.15, (
        f"admission control cost {goodput_penalty:.1%} goodput at 1x load"
    )

    RESULTS["storm"] = {
        "storm_size": STORM_SIZE,
        "admitted": admitted,
        "rejected": rejected,
        "reject_p50_ms": reject_latencies[rejected // 2] * 1e3,
        "reject_p99_ms": p99 * 1e3,
        "baseline_wall_s": baseline_wall,
        "guarded_wall_s": guarded_wall,
        "goodput_penalty": goodput_penalty,
    }
    report.line(f"PERF13 -- {STORM_SIZE}-submission storm, burst={STORM_BURST:g}")
    report.line()
    report.table(
        ["admitted", "rejected", "reject p99", "1x goodput penalty"],
        [[admitted, rejected, f"{p99 * 1e3:.2f} ms", f"{goodput_penalty:+.1%}"]],
    )


# -- storm: bounded depth + shed-then-replay integrity -------------------------

_release = threading.Event()


class Stalled(Task):
    """A slow consumer taken to the limit: consumes nothing until released."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        _release.wait(30)
        return "ok"


def test_bounded_depth_and_zero_journaled_then_lost(report):
    _release.clear()
    registry = TaskRegistry()
    registry.register_class("stall.jar", "t.Stalled", Stalled)
    chaos = ChaosPolicy().slow_consumer("/sink", stride=3)
    with Cluster(
        1,
        registry=registry,
        chaos=chaos,
        queue_maxsize=QUEUE_CAP,
        queue_policy="shed_oldest",
    ) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("perf13")
        api.create_task(
            handle, TaskSpec(name="sink", jar="stall.jar", cls="t.Stalled")
        )
        api.start_job(handle)
        peak = 0
        for i in range(STORM_MESSAGES):
            api.send_message(handle, "sink", i)
            peak = max(peak, cluster.total_queued_messages())
        # resident depth is bounded: capacity plus the handful of
        # chaos-delayed messages held in flight on the simulated link
        depth_bound = QUEUE_CAP + 8
        assert peak <= depth_bound, f"resident depth peaked at {peak}"
        sheds = handle.job.messages_shed
        assert sheds >= STORM_MESSAGES - depth_bound
        records = cluster.servers[0].journal.records(handle.job_id)
        snapshot = replay_job(handle.job_id, records)
        shed_serials = set(snapshot.sheds.get("sink", []))
        ledgered = {m.serial for m in snapshot.deliveries.get("sink", [])}
        lost = shed_serials - ledgered
        assert not lost, f"{len(lost)} shed messages were never ledgered"
        assert len(shed_serials) == sheds
        _release.set()
        assert api.wait(handle, timeout=30)["sink"] == "ok"

    RESULTS["shedding"] = {
        "messages": STORM_MESSAGES,
        "queue_cap": QUEUE_CAP,
        "peak_resident_depth": peak,
        "shed": sheds,
        "journaled_then_lost": 0,
    }
    report.line(
        f"PERF13 -- {STORM_MESSAGES} messages vs stalled consumer, cap {QUEUE_CAP}"
    )
    report.line()
    report.table(
        ["peak depth", "shed", "journaled-then-lost"],
        [[peak, sheds, 0]],
    )


# -- disabled-mode overhead ----------------------------------------------------


def run_floyd(matrix, store_key: str, *, maxsize: int) -> float:
    source = store_matrix(store_key, matrix)
    with Cluster(
        4,
        registry=floyd_registry(),
        memory_per_node=10**6,
        queue_maxsize=maxsize,
        queue_policy="block",
    ) as cluster:
        api = CNAPI.initialize(cluster)
        started = time.perf_counter()
        handle = api.create_job("perf13")
        api.create_task(
            handle,
            TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS, params=(source,)),
        )
        names = [f"w{i}" for i in range(FLOYD_WORKERS)]
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
    return wall


def test_unbounded_default_pays_no_overhead(report):
    matrix = random_weighted_graph(FLOYD_N, seed=13, density=0.2)
    run_floyd(matrix, "perf13-warm", maxsize=0)  # warm caches/imports
    off_times, on_times = [], []

    def one_round(round_no):
        # "on" = bounds present but never tripping: the policy machinery
        # runs on every put, the backpressure never engages
        off_times.append(run_floyd(matrix, f"perf13-off-{round_no}", maxsize=0))
        on_times.append(
            run_floyd(matrix, f"perf13-on-{round_no}", maxsize=100_000)
        )

    for round_no in range(ROUNDS):  # interleave to share ambient noise
        one_round(round_no)
    while (
        len(off_times) < MAX_ROUNDS
        and min(on_times) / min(off_times) - 1.0 >= 0.05
    ):
        one_round(len(off_times))

    overhead = min(on_times) / min(off_times) - 1.0
    assert overhead < 0.05, (
        f"bounded-but-idle queues cost {overhead:.1%} over the unbounded default"
    )

    RESULTS["disabled_overhead"] = {
        "n": FLOYD_N,
        "workers": FLOYD_WORKERS,
        "rounds": len(off_times),
        "best_unbounded_s": min(off_times),
        "best_bounded_idle_s": min(on_times),
        "overhead": overhead,
    }
    report.line(f"PERF13 -- Floyd N={FLOYD_N}, bounded-idle vs unbounded queues")
    report.line()
    report.table(
        ["rounds", "best unbounded", "best bounded-idle", "overhead"],
        [[len(off_times), f"{min(off_times) * 1e3:.1f} ms",
          f"{min(on_times) * 1e3:.1f} ms", f"{overhead:+.1%}"]],
    )


def test_write_bench_json(out_dir):
    assert {"storm", "shedding", "disabled_overhead"} <= set(RESULTS)
    (out_dir / "BENCH_overload.json").write_text(
        json.dumps(RESULTS, indent=2) + "\n"
    )
