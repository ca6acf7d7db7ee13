"""Retention gate -- a long-lived cluster stops growing once its finished jobs retire.

The e2e harness rebuilds its cluster every few ops, so its
``peak_rss_mb`` cannot see what one cluster keeps per job.  This gate
runs 300 ``compose-wide150`` ops (a 152-task fan, the default pipeline)
on one cluster and checks the two halves of the retirement rule
(``repro.cn.durability.RETAINED_FINISHED``):

* **Bounded stores.** After the run, every manager's ``jobs``, every
  replica's logs and checkpoint tables, the span store's traces and the
  directory's entries and registrations hold at most the newest
  ``RETAINED_FINISHED`` finished jobs.
* **Flat memory.** The resident set grows by at most 5 MiB from op 100
  to op 300 (the collector is run before each reading), where a cluster
  that kept every job grew by about 0.9 MiB per op.

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/test_perf_retention.py``
(about 30 s on two cores).
"""

from __future__ import annotations

import gc

from benchmarks.e2e.harness import rss_mb
from benchmarks.e2e.workloads import GOLDEN_SEED, ComposeWide
from repro.cn.durability import RETAINED_FINISHED
from repro.core.transform.pipeline import Pipeline

OPS = 300
#: the op the growth is measured from: well past the first RETAINED_FINISHED
FROM_OP = 100
MAX_GROWTH_MB = 5.0


def test_300_ops_on_one_cluster_keep_the_newest_jobs_and_flat_memory():
    workload = ComposeWide()
    model = workload.model(GOLDEN_SEED)
    pipeline = Pipeline()
    with workload.cluster() as cluster:
        for op in range(OPS):
            if op == FROM_OP:
                gc.collect()
                start_mb = rss_mb()
            result = pipeline.run(model, cluster, timeout=120.0)
            assert set(result.results.values()) == {"ok"}, op
        gc.collect()
        growth_mb = rss_mb() - start_mb
        managers = [server.jobmanager for server in cluster.servers]
        assert sum(len(manager.jobs) for manager in managers) == RETAINED_FINISHED
        for server in cluster.servers:
            backend = server.journal.backend
            assert len(backend._by_job) == RETAINED_FINISHED
            assert len(backend._checkpoints) <= RETAINED_FINISHED
        assert len(cluster.telemetry.spans.trace_ids()) == RETAINED_FINISHED
        assert len(cluster.directory.job_ids()) == RETAINED_FINISHED
        assert len(cluster.directory._registered) == RETAINED_FINISHED
    assert growth_mb <= MAX_GROWTH_MB, (
        f"RSS grew {growth_mb:.1f} MiB from op {FROM_OP} to op {OPS}"
    )
