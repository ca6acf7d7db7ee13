"""PERF11 -- zero-copy batched data plane on the Floyd broadcast.

The guiding example's traffic is dominated by the k-loop row broadcast:
N rounds of W-1 identical row messages (paper section 2; PERF4 confirms
the N x (W-1) message shape).  Before this optimization every one of
those messages independently paid a ``pickle.dumps`` for accounting, a
journal append **plus a bus publish** under the replicated-journal lock,
and an unbounded delivery-ledger append.  The batched data plane makes
each of those costs O(1) per broadcast round:

* ``shape gates`` (hard assertions, also enforced in CI):
  - journal appends+publishes per broadcast round == 1 (one ``delivery`` record),
    where the per-message encoding paid W-1;
  - the row payload is sized once per round (W-2 interning reuses) and
    numpy rows are never pickled for sizing at all;
  - the delivery ledger is bounded by in-flight traffic: after the job
    finishes every task's history has been GC'd (resident == 0);
  - a small Floyd job and the 152-task compose journal a pinned count of
    records of each kind.

* ``BENCH_dataplane.json`` records wall clock, messages routed, journal
  record counts, and the ledger high-watermark for N in {128, 256} with
  durability AND telemetry on -- the starting point of the data-plane
  perf trajectory.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

from benchmarks.e2e.workloads import GOLDEN_SEED, ComposeWide
from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall_numpy,
    random_weighted_graph,
    run_parallel_floyd,
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
from repro.cn import CNAPI, Cluster, TaskSpec
from repro.core.transform.pipeline import Pipeline

SIZES = (128, 256)
WORKERS = 8


def run_floyd_dataplane(n: int, store_key: str):
    """One Floyd job with durability + telemetry on (both defaults);
    returns the stats dict the gates and the JSON report consume."""
    matrix = random_weighted_graph(n, seed=23, density=0.2)
    source = store_matrix(store_key, matrix)
    # checkpointing volume is PERF8's subject, not this benchmark's:
    # disable it so the journal counts isolate the data plane
    saved_interval = TCTask.checkpoint_every
    TCTask.checkpoint_every = 0
    try:
        with Cluster(
            4, registry=floyd_registry(), memory_per_node=10**6
        ) as cluster:
            api = CNAPI.initialize(cluster)
            started = time.perf_counter()
            handle = api.create_job("perf11")
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
                             params=(i + 1,), depends=("split",)),
                )
            api.create_task(
                handle,
                TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS,
                         params=("",), depends=tuple(names)),
            )
            api.start_job(handle)
            results = api.wait(handle, timeout=300)
            wall = time.perf_counter() - started
            assert np.allclose(results["join"], floyd_warshall_numpy(matrix))
            job = handle.job
            records = handle.manager.journal.records(handle.job_id)

            def is_row(message):
                payload = message.payload
                return isinstance(payload, tuple) and payload and payload[0] == "row"

            row_records = [
                r for r in records
                if r.kind == "delivery" and is_row(r.data["messages"][0])
            ]
            row_batches = [r for r in row_records if len(r.data["messages"]) > 1]
            row_singletons = [r for r in row_records if len(r.data["messages"]) == 1]
            return {
                "n": n,
                "workers": WORKERS,
                "wall_s": wall,
                "messages_routed": job.messages_routed,
                "payload_bytes": job.payload_bytes,
                "payload_sizings": job.payload_sizings,
                "payload_reuses": job.payload_reuses,
                "payloads_pickle_sized": job.payloads_pickle_sized,
                "payloads_unsized": job.payloads_unsized,
                "journal_records": len(records),
                "row_batch_records": len(row_batches),
                "row_batch_width": (
                    len(row_batches[0].data["messages"]) if row_batches else 0
                ),
                "row_singleton_records": len(row_singletons),
                "ledger_peak": job.ledger_peak,
                "ledger_resident": job.ledger_resident,
                "ledger_truncated": job.ledger_truncated,
            }
    finally:
        TCTask.checkpoint_every = saved_interval


def test_broadcast_costs_one_journal_publish_and_one_sizing(report, out_dir):
    runs = [
        run_floyd_dataplane(n, f"perf11-{n}") for n in SIZES
    ]
    for stats in runs:
        n, w = stats["n"], stats["workers"]
        # shape gate 1: one journal append+publish per broadcast round.
        # Every round is one delivery record of W-1 row messages; the
        # per-message encoding would have shown N*(W-1) row deliveries.
        assert stats["row_batch_records"] == n, (
            f"N={n}: expected {n} row delivery records, "
            f"got {stats['row_batch_records']}"
        )
        assert stats["row_batch_width"] == w - 1
        assert stats["row_singleton_records"] == 0, (
            f"N={n}: {stats['row_singleton_records']} row messages were "
            "journaled per-message instead of batched"
        )
        # shape gate 2: the row payload is sized once per round -- the
        # other W-2 recipients reuse the interned size (shared payload
        # object), and numpy rows never take the pickle fallback
        assert stats["payload_reuses"] == n * (w - 2), (
            f"N={n}: expected {n * (w - 2)} interned sizing reuses, "
            f"got {stats['payload_reuses']}"
        )
        assert stats["payloads_pickle_sized"] == 0, (
            f"N={n}: {stats['payloads_pickle_sized']} payloads fell back "
            "to pickle-based sizing"
        )
        assert stats["payloads_unsized"] == 0
        # shape gate 3: ledger GC bounds resident history -- after the
        # job finishes every task is terminal and its ledger truncated
        assert stats["ledger_resident"] == 0
        assert stats["ledger_truncated"] > 0
        assert 0 < stats["ledger_peak"] <= stats["messages_routed"]

    report.line(f"PERF11 -- batched data plane, Floyd x {WORKERS} workers "
                "(durability + telemetry on)")
    report.line()
    report.table(
        ["N", "wall", "messages", "journal recs", "row batches",
         "sizing reuses", "ledger peak"],
        [[s["n"], f"{s['wall_s']:.2f} s", s["messages_routed"],
          s["journal_records"], s["row_batch_records"],
          s["payload_reuses"], s["ledger_peak"]] for s in runs],
    )
    report.line()
    per_round = runs[-1]["row_batch_records"] / runs[-1]["n"]
    report.line(
        f"journal publishes per broadcast round: {per_round:.0f} "
        f"(was {WORKERS - 1} before batching); row payload pickled for "
        f"sizing: 0 times"
    )

    (out_dir / "BENCH_dataplane.json").write_text(
        json.dumps({"experiment": "PERF11", "runs": runs}, indent=2) + "\n"
    )


def _counting_appends(cluster) -> Counter:
    """Count, by kind, the records every node's journal writer accepts."""
    counts: Counter = Counter()
    for server in cluster.servers:
        journal = server.journal

        def append_many(job_id, events, mepoch=1, _append=journal.append_many):
            records = _append(job_id, events, mepoch)
            counts.update(record.kind for record in records)
            return records

        journal.append_many = append_many
    return counts


def test_the_journal_record_mix_per_job_is_pinned():
    """Shape gate 4: what a job journals, kind by kind.  A change to how
    the live path writes its records (append, then apply) must not add,
    drop or split one: a small Floyd job (N=16, 4 workers, a checkpoint
    per step) and the 152-task compose of ``compose-wide150``."""
    with Cluster(4, memory_per_node=10**6) as cluster:
        counts = _counting_appends(cluster)
        matrix = random_weighted_graph(16, seed=0)
        run_parallel_floyd(matrix, n_workers=4, cluster=cluster)
    assert counts == {
        "job-created": 1,
        "task-spec": 6,
        "task-placed": 6,
        "task-state": 6,
        "checkpoint": 64,
        "delivery": 21,
        "ledger-gc": 5,
        "job-finished": 1,
    }
    wide = ComposeWide()
    with wide.cluster() as cluster:
        counts = _counting_appends(cluster)
        Pipeline().run(wide.model(GOLDEN_SEED), cluster, timeout=120.0)
    assert counts == {
        "job-created": 1,
        "task-spec": 152,
        "task-placed": 152,
        "task-state": 152,
        "job-finished": 1,
    }
