#!/usr/bin/env python3
"""Execution backends: the same job on inproc threads and proc workers.

The cluster API takes a ``transport`` argument that decides *where* task
bodies execute; everything else -- the model, the generated client, the
control plane with its ledger and retries -- is identical:

* ``inproc`` (the default): task attempts run on coordinator threads.
  Deterministic, zero-setup, and the substrate the chaos/simulation
  machinery requires.
* ``proc``: one worker process is forked per node, and attempts cross a
  length-prefixed pickle-5 frame protocol (large numpy blocks leave as
  out-of-band segments, uncopied).  CPU-bound kernels escape the GIL,
  so an N-node cluster really uses N cores.

This example runs the same Floyd-Warshall composition on both backends
and prints which OS processes did the work: with ``inproc`` every
attempt reports the coordinator's pid, with ``proc`` each node reports
its own forked worker.

Run:  python examples/transport_backends.py
"""

import multiprocessing
import os

import numpy as np

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.cn import Cluster


def run_on(backend: str, matrix) -> list[list[float]]:
    with Cluster(4, registry=floyd_registry(), transport=backend) as cluster:
        result, _ = run_parallel_floyd(
            matrix, n_workers=4, cluster=cluster, timeout=120
        )
        pids = cluster.transport.worker_pids() if backend == "proc" else {}
        if backend == "proc":
            print(f"  worker pids : {sorted(pids.values())}")
            stats = cluster.transport.stats()
            frames = sum(s["frames_sent"] + s["frames_received"] for s in stats.values())
            print(f"  wire traffic: {frames} frames across {len(stats)} node endpoints")
        else:
            print(f"  all attempts ran inside the coordinator (pid {os.getpid()})")
    return result


def main() -> None:
    matrix = random_weighted_graph(24, seed=7)
    expected = floyd_warshall(matrix)
    print(f"coordinator pid: {os.getpid()}")

    print("\n[inproc] default backend -- coordinator threads")
    result = run_on("inproc", matrix)
    print(f"  correct: {np.allclose(result, expected)}")

    if "fork" not in multiprocessing.get_all_start_methods():
        print("\n[proc] skipped: this platform has no fork start method")
        return

    print("\n[proc] forked worker processes -- one per node")
    result = run_on("proc", matrix)
    print(f"  correct: {np.allclose(result, expected)}")


if __name__ == "__main__":
    main()
