"""PERF13 -- admission control under a submission storm.

One gate, asserted here and in CI: during a 10x submission storm the p99
latency of a *rejected* ``Portal.submit`` stays bounded (the decision is
O(1) token-bucket + saturation arithmetic and runs before XMI parsing),
no matter how congested the pipeline is, and at 1x load the admission
controller costs less than 15% goodput.

``BENCH_overload.json`` holds the storm and goodput numbers.
"""

from __future__ import annotations

import json
import time

from repro.apps.montecarlo import build_pi_model, register_pi_tasks
from repro.cn import AdmissionController, Cluster, TaskRegistry
from repro.cn.portal import Portal
from repro.core.xmi import write_graph

RESULTS: dict = {"experiment": "PERF13"}

BASELINE_JOBS = 5
STORM_SIZE = 50  # ~10x the per-tenant burst below
STORM_BURST = 5.0


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

        # 10x storm against a tight per-tenant bucket
        portal.admission = AdmissionController(
            cluster, rate=0.5, burst=STORM_BURST
        )
        reject_latencies, admitted = [], 0
        for _ in range(STORM_SIZE):
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


def test_write_bench_json(out_dir):
    assert set(RESULTS) - {"experiment"} == {"storm"}
    (out_dir / "BENCH_overload.json").write_text(
        json.dumps(RESULTS, indent=2) + "\n"
    )
