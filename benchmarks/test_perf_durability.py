"""PERF8 -- recovery cost vs checkpoint interval.

The durability layer's tunable is ``TCTask.checkpoint_every``: how many
Floyd steps a worker executes between journal checkpoints.  Small
intervals mean a crashed worker resumes close to where it died but the
journal carries more (and larger) records; ``0`` disables checkpointing
and recovery recomputes from step 0.

The scenario is fully deterministic: two workers run the n-step k-loop,
both are gated (paused) right after completing step ``GATE_K``, the node
hosting worker ``w0`` is killed, failure detection re-places it, and the
sweep records how many steps the fresh attempt had to re-execute, how
long the job took from kill to completion, and how many checkpoints
the killed worker wrote to the journal (which retains only the latest).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
)
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
)
from repro.apps.floyd.tasks import TCTask
from repro.cn import CNAPI, Cluster, TaskSpec, collect_trace

N = 16
GATE_K = 13
WORKERS = 2
#: sweep order: densest checkpointing first, disabled last
INTERVALS = (1, 4, 8, 0)


class Gate:
    def __init__(self, k: int, expected: int) -> None:
        self.k = k
        self.expected = expected
        self.release = threading.Event()
        self.all_reached = threading.Event()
        self._lock = threading.Lock()
        self._count = 0

    def hit(self) -> None:
        with self._lock:
            self._count += 1
            if self._count >= self.expected:
                self.all_reached.set()
        self.release.wait(30)


def gated_registry(gate: Gate, every: int):
    class SweepTCTask(TCTask):
        checkpoint_every = every

        def _after_step(self, k, ctx):
            if k == gate.k and not gate.release.is_set():
                gate.hit()

    registry = floyd_registry()
    registry.register_class(WORKER_JAR, WORKER_CLASS, SweepTCTask)
    return registry


def run_once(every: int, matrix) -> dict:
    source = store_matrix(f"perf-durability-{every}", matrix)
    gate = Gate(GATE_K, expected=WORKERS)
    cluster = Cluster(3, registry=gated_registry(gate, every), failure_k=2)
    cluster.servers[0].accept_tasks = False  # node0: manager only
    try:
        with cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS,
                         params=(source,)),
            )
            names = [f"w{i}" for i in range(WORKERS)]
            for i, name in enumerate(names):
                api.create_task(
                    handle,
                    TaskSpec(name=name, jar=WORKER_JAR, cls=WORKER_CLASS,
                             params=(i + 1,), depends=("split",), max_retries=2),
                )
            api.create_task(
                handle,
                TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS,
                         params=("",), depends=tuple(names)),
            )
            # a replica retains only each task's latest checkpoint, so the
            # writes are counted where they pass: the manager's backend
            backend = handle.manager.journal.backend
            extend, written = backend.extend, []

            def recording_extend(batch):
                written.extend(
                    record.data["task"] for record in batch
                    if record.kind == "checkpoint" and record.job_id == handle.job_id
                )
                return extend(batch)

            backend.extend = recording_extend
            api.start_job(handle)
            assert gate.all_reached.wait(30)
            victim = handle.job.task("w0").node_name.split("/")[0]
            killed_at = time.perf_counter()
            cluster.kill_node(victim)
            cluster.tick(3)
            gate.release.set()
            results = api.wait(handle, timeout=60)
            recovery_seconds = time.perf_counter() - killed_at
            trace = collect_trace(handle)
            retained = sum(
                record.kind == "checkpoint"
                for record in handle.manager.journal.records(handle.job_id)
            )
            # this cluster's only job: every write was let go of or is kept
            assert backend.superseded + retained == len(written)
            checkpoints = written.count("w0")
        assert np.allclose(results["join"], floyd_warshall(matrix))
        resumed_from = results["w0"]["resumed_from"]
        redo = N - (resumed_from + 1) if resumed_from is not None else N
        assert trace.task("w0").resumes == (1 if resumed_from is not None else 0)
        return {
            "every": every,
            "resumed_from": resumed_from,
            "redo_steps": redo,
            "recovery_seconds": recovery_seconds,
            "checkpoints_written": checkpoints,
        }
    finally:
        gate.release.set()


def test_perf8_recovery_vs_checkpoint_interval(report):
    matrix = random_weighted_graph(N, seed=17)
    rows = [run_once(every, matrix) for every in INTERVALS]
    by_interval = {row["every"]: row for row in rows}

    report.line(
        f"PERF8 -- recovery vs checkpoint interval "
        f"(n={N}, kill after step {GATE_K}, {WORKERS} workers)"
    )
    report.table(
        ["checkpoint_every", "resumed from", "steps re-executed",
         "w0 checkpoints written", "kill->done seconds"],
        [
            [
                row["every"] if row["every"] else "0 (disabled)",
                "-" if row["resumed_from"] is None else row["resumed_from"],
                row["redo_steps"],
                row["checkpoints_written"],
                f"{row['recovery_seconds']:.3f}",
            ]
            for row in rows
        ],
    )

    # per-step checkpointing recovers with the least recomputation; no
    # checkpoints means recomputing the full k-loop
    assert by_interval[1]["redo_steps"] < by_interval[0]["redo_steps"]
    assert by_interval[0]["redo_steps"] == N
    # coarser intervals never re-execute fewer steps than finer ones
    assert (
        by_interval[1]["redo_steps"]
        <= by_interval[4]["redo_steps"]
        <= by_interval[8]["redo_steps"]
        <= by_interval[0]["redo_steps"]
    )
    # the journal-volume side of the trade-off
    assert (
        by_interval[1]["checkpoints_written"]
        > by_interval[4]["checkpoints_written"]
        > by_interval[0]["checkpoints_written"]
    )
