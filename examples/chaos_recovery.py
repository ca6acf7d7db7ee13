#!/usr/bin/env python3
"""Chaos engineering: node failure, detection, and recovery (extension).

The retry extension (`examples/fault_tolerance.py`) handles a *task*
failing; this example kills a whole *node* mid-job and watches the
runtime put things right:

1. a seeded :class:`ChaosPolicy` scripts the fault (``crash_node``) so
   the run is exactly reproducible -- same seed, same fault sequence;
2. TaskManagers heartbeat on every :meth:`Cluster.tick`; the surviving
   JobManager's failure detector declares the node dead after
   ``failure_k`` consecutive misses;
3. the dead node's tasks are re-placed on surviving nodes and the job's
   delivery ledger is replayed into their fresh queues (at-least-once
   delivery), so in-flight conversations resume.

The demo task needs TWO client messages to finish; the node dies after
the first, proving the replayed message survives the crash.  A final
section runs the full parallel Floyd pipeline under a scripted node
crash and checks the answer against the serial baseline.

Run:  python examples/chaos_recovery.py
"""

import numpy as np

from repro.apps.floyd import (
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    run_parallel_floyd,
)
from repro.cn import (
    CNAPI,
    ChaosPolicy,
    Cluster,
    MessageType,
    Task,
    TaskRegistry,
    TaskSpec,
)


class TwoPartJob(Task):
    """Finishes only after receiving two client messages."""

    def __init__(self) -> None:
        pass

    def run(self, ctx):
        first = ctx.recv_user(timeout=30.0).payload
        second = ctx.recv_user(timeout=30.0).payload
        return [first, second]


def node_failure_demo() -> None:
    registry = TaskRegistry()
    registry.register_class("demo.jar", "demo.TwoPart", TwoPartJob)

    with Cluster(3, registry=registry, failure_k=2) as cluster:
        # keep the job's manager out of harm's way on node0
        cluster.servers[0].accept_tasks = False
        api = CNAPI.initialize(cluster)
        handle = api.create_job("ChaosDemo", requirements={"prefer": "node0"})
        api.create_task(
            handle,
            TaskSpec(name="work", jar="demo.jar", cls="demo.TwoPart", max_retries=2),
        )
        api.start_job(handle)
        api.send_message(handle, "work", "half the answer")

        victim = handle.job.task("work").node_name
        print(f"task placed on : {victim}")
        print(f"killing node   : {victim.split('/')[0]}")
        cluster.kill_node(victim.split("/")[0])
        cluster.tick(3)  # heartbeats missed -> declared dead -> re-placed

        print(f"re-placed on   : {handle.job.task('work').node_name}")
        print(f"replayed msgs  : {handle.job.messages_replayed}")
        api.send_message(handle, "work", "the other half")
        results = api.wait(handle, timeout=30)
        print(f"result         : {results['work']}")

        for message in handle.job.client_queue.drain():
            if message.type == MessageType.NODE_FAILED:
                payload = message.payload
                print(
                    f"client saw     : NODE_FAILED {payload['node']} "
                    f"(re-placing {payload['orphans']})"
                )


def floyd_under_chaos_demo() -> None:
    chaos = ChaosPolicy(seed=7)
    chaos.crash_node("node2", after_starts=1)
    matrix = random_weighted_graph(8, seed=11)
    with Cluster(4, registry=floyd_registry(), chaos=chaos, failure_k=2) as cluster:
        cluster.start_heartbeats(interval=0.02)
        result, _ = run_parallel_floyd(
            matrix, n_workers=3, cluster=cluster,
            retries=2, timeout=60.0,
        )
    ok = np.allclose(result, floyd_warshall(matrix))
    print(f"matches serial : {ok}")
    for fault in chaos.log_dicts():
        print(f"injected fault : {fault['kind']} on {fault['target']}")


def main() -> None:
    print("-- scripted node kill, detection, replayed recovery --")
    node_failure_demo()
    print()
    print("-- parallel Floyd rides out a worker-node crash --")
    floyd_under_chaos_demo()


if __name__ == "__main__":
    main()
