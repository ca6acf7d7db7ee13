"""PERF4 -- communication volume of the parallel Floyd composition.

Paper section 2: "in the kth step, each task requires, in addition to
the rows assigned to it, the kth row" -- the owning worker broadcasts
row k to every other worker, every step.  Predicted message count for an
N-node graph on W workers is therefore ~ N x (W - 1) row messages plus
O(W) setup/collation traffic, and per-message row payloads of N floats.
This bench measures the actual routed-message and payload-byte counts
and checks that shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.floyd import floyd_registry, floyd_warshall_numpy, random_weighted_graph
from repro.cn import CNAPI, Cluster, TaskSpec
from repro.core.transform.xmi2cnx import xmi_to_cnx
from repro.core.xmi import write_graph
from repro.apps.floyd.model import build_fig3_model
from repro.apps.floyd.io import store_matrix
from repro.cn.client import expand_dynamic_tasks

N = 64


@pytest.fixture(scope="module")
def matrix():
    return random_weighted_graph(N, seed=99, density=0.25)


def run_and_account(matrix, workers):
    source = store_matrix(f"comm-{workers}", matrix)
    graph = build_fig3_model(n_workers=workers, matrix_source=source, sink="")
    doc = xmi_to_cnx(write_graph(graph))
    with Cluster(4, registry=floyd_registry(), memory_per_node=10**6) as cluster:
        api = CNAPI.initialize(cluster)
        specs = expand_dynamic_tasks(doc.client.jobs[0], {})
        handle = api.create_job("comm")
        for spec in specs:
            api.create_task(handle, spec)
        api.start_job(handle)
        results = api.wait(handle, timeout=120)
        assert np.allclose(results["tctask999"], floyd_warshall_numpy(matrix))
        return handle.job.messages_routed, handle.job.payload_bytes


def test_broadcast_traffic_shape(report, matrix):
    rows = []
    counts = []
    for workers in (2, 4, 8):
        messages, payload = run_and_account(matrix, workers)
        counts.append(messages)
        predicted = N * (workers - 1)
        rows.append(
            [workers, messages, predicted, f"{payload / 1024:.0f} KiB"]
        )
    report.line(f"PERF4 -- Floyd broadcast traffic, N={N} graph nodes")
    report.line("(predicted row messages = N x (W-1); measured includes")
    report.line(" setup/result/lifecycle traffic on top)")
    report.line()
    report.table(["workers", "messages routed", "predicted row msgs", "payload"], rows)
    # traffic grows with worker count, dominated by the k-row broadcast
    assert counts[0] < counts[1] < counts[2]
    for (workers, messages, predicted, _), count in zip(rows, counts):
        assert count >= predicted, "cannot route fewer than the broadcast minimum"


def test_bench_message_accounting_overhead(benchmark):
    """Accounting must not dominate routing: time a chat-heavy job."""
    from repro.cn import Task, TaskRegistry

    class Chatter(Task):
        def __init__(self, *params):
            pass

        def run(self, ctx):
            peers = [p for p in ctx.peers if p != ctx.task_name]
            for _ in range(50):
                for peer in peers:
                    ctx.send(peer, b"x" * 256)
            # drain what others sent us (best effort)
            for _ in range(50 * len(peers)):
                ctx.recv_user(timeout=10)
            return "done"

    registry = TaskRegistry()
    registry.register_class("chat.jar", "b.Chatter", Chatter)

    def run_once():
        with Cluster(2, registry=registry, memory_per_node=10**6) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("chat")
            for name in ("a", "b"):
                api.create_task(
                    handle, TaskSpec(name=name, jar="chat.jar", cls="b.Chatter", memory=1)
                )
            api.start_job(handle)
            api.wait(handle, timeout=60)
            return handle.job.messages_routed

    routed = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert routed >= 100


def test_wait_wakeup_latency(report):
    """PERF10 -- JobHandle.wait wake-up latency.

    ``api.wait`` used to poll the job every 0.2s, so a finished job sat
    unnoticed for ~100ms on average (uniform in [0, 200ms]).  The wait
    path now blocks on a condition variable that ``note_terminal``
    signals, so the waiter wakes as soon as the outcome is applied.  We
    measure poke-to-return latency with a waiter parked inside
    ``api.wait`` and require the mean to beat even half of one old poll
    slice by a wide margin.
    """
    import threading
    import time

    from repro.cn import TaskRegistry
    from tests.conftest import Sleepy

    registry = TaskRegistry()
    registry.register_class("sleepy.jar", "test.Sleepy", Sleepy)

    latencies = []
    with Cluster(2, registry=registry, memory_per_node=10**6) as cluster:
        api = CNAPI.initialize(cluster)
        for round_no in range(10):
            handle = api.create_job(f"wake-{round_no}")
            api.create_task(
                handle,
                TaskSpec(name="s", jar="sleepy.jar", cls="test.Sleepy", memory=1),
            )
            api.start_job(handle)
            returned = {}

            def waiter():
                returned["results"] = api.wait(handle, timeout=30)
                returned["at"] = time.perf_counter()

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.05)  # let the waiter park inside wait()
            poked_at = time.perf_counter()
            api.send_message(handle, "s", "wake-up")
            thread.join(timeout=30)
            assert not thread.is_alive() and returned["results"]["s"] == "wake-up"
            latencies.append(returned["at"] - poked_at)

    mean = sum(latencies) / len(latencies)
    worst = max(latencies)
    report.line("PERF10 -- wait() wake-up latency (condition variable, no polling)")
    report.line()
    report.table(
        ["rounds", "mean", "p100", "old poll slice"],
        [[len(latencies), f"{mean * 1e3:.2f} ms", f"{worst * 1e3:.2f} ms", "200 ms"]],
    )
    # latency includes the poke message delivery and the task finishing,
    # so it is not pure wake time -- but it must still be far below the
    # ~100ms average penalty the 0.2s poll imposed.
    assert mean < 0.05, f"mean wake latency {mean * 1e3:.1f} ms; polling regression?"
