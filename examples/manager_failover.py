#!/usr/bin/env python3
"""Manager failover: the coordinating JobManager dies mid-Floyd (extension).

`examples/chaos_recovery.py` kills *worker* nodes -- the JobManager
survives and re-places the orphans.  This example kills the node hosting
the **JobManager itself**, mid-algorithm, under a fixed seed:

1. every job mutation was journaled write-ahead and replicated to every
   peer over the multicast bus (topic ``journal``);
2. when the failure detector declares the managing node dead, the
   lowest-ranked survivor elects itself successor, replays its replica
   of the journal into a fresh Job, bumps the *manager epoch* (fencing
   any zombie writes from the dead manager), and re-places the
   unfinished tasks;
3. workers checkpoint their row block after every Floyd step, so the
   re-placed attempts resume mid-algorithm instead of recomputing;
4. the client's JobHandle re-binds through the job directory -- the
   ``api.wait`` call below never learns its manager died.

The workers are gated with an event right after completing step K, so
the kill lands at exactly the same point in the algorithm on every run.

Run:  python examples/manager_failover.py
"""

import threading

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
from repro.cn import CNAPI, Cluster, TaskSpec, collect_trace, replay_job

N = 8          # matrix size = number of Floyd steps
WORKERS = 2    # row-block workers
GATE_K = 2     # kill the manager right after every worker finishes step 2
SEED = 11


class GatedTCTask(TCTask):
    """Pauses every (first-attempt) worker after step GATE_K so the kill
    is deterministic; attempts re-placed after the release never gate."""

    reached = threading.Semaphore(0)
    release = threading.Event()

    def _after_step(self, k, ctx):
        if k == GATE_K and not GatedTCTask.release.is_set():
            GatedTCTask.reached.release()
            GatedTCTask.release.wait(30)


def main() -> None:
    matrix = random_weighted_graph(N, seed=SEED)
    source = store_matrix("manager-failover-demo", matrix)
    registry = floyd_registry()
    registry.register_class(WORKER_JAR, WORKER_CLASS, GatedTCTask)

    with Cluster(3, registry=registry, failure_k=2) as cluster:
        cluster.servers[0].accept_tasks = False  # node0: manager only
        api = CNAPI.initialize(cluster)
        handle = api.create_job("FailoverDemo", requirements={"prefer": "node0"})
        api.create_task(
            handle,
            TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS, params=(source,)),
        )
        workers = [f"w{i}" for i in range(WORKERS)]
        for i, name in enumerate(workers):
            api.create_task(
                handle,
                TaskSpec(name=name, jar=WORKER_JAR, cls=WORKER_CLASS,
                         params=(i + 1,), depends=("split",), max_retries=2),
            )
        api.create_task(
            handle,
            TaskSpec(name="join", jar=JOIN_JAR, cls=JOIN_CLASS,
                     params=("",), depends=tuple(workers)),
        )
        api.start_job(handle)
        print(f"job            : {handle.job_id} managed by {handle.manager.name}")

        for _ in workers:  # every worker has checkpointed step GATE_K
            GatedTCTask.reached.acquire(timeout=30)
        print(f"workers paused : after step {GATE_K} (checkpointed)")
        print("killing node   : node0 (the MANAGING node)")
        cluster.kill_node("node0")
        cluster.tick(4)  # missed beats -> declared dead -> successor adopts
        GatedTCTask.release.set()  # zombie attempts unblock and die fenced

        results = api.wait(handle, timeout=60)
        print(f"manager now    : {handle.manager.name} "
              f"(epoch {handle.job.manager_epoch})")

        trace = collect_trace(handle)
        for adoption in trace.adoptions():
            detail = adoption.detail
            print(
                f"adoption       : {detail['previous']} -> {detail['manager']}, "
                f"replayed {detail['replayed_records']} journal records, "
                f"re-placed {detail['re_placing']}"
            )
        for name in workers:
            task = trace.task(name)
            print(
                f"{name:<15}: attempts={task.starts} "
                f"resumed_from={results[name]['resumed_from']} "
                f"(journal tags {task.resumed_from})"
            )

        records = handle.manager.journal.records(handle.job_id)
        replayed = replay_job(handle.job_id, records)
        print(f"journal replay : {len(records)} records -> states "
              f"{replayed.states()}")
        ok = np.allclose(results["join"], floyd_warshall(matrix))
        print(f"matches serial : {ok}")


if __name__ == "__main__":
    main()
