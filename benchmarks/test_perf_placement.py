"""PERF3/PERF16 -- placement cost across cluster sizes and schedulers.

PERF3 (paper section 3): job creation multicasts a solicitation, willing
JobManagers respond, one is selected; each task then solicits
TaskManagers.  The implied behaviour to measure: discovery cost grows
with subnet size (every node sees every solicitation) while placement
spreads tasks across nodes.  We sweep cluster sizes, count bus traffic,
and benchmark end-to-end job setup.

PERF16: placement *throughput* (tasks placed/sec) for the paper's
per-task solicit protocol vs the rule-based bid scheduler, across
cluster sizes.  Solicit pays one multicast round per task, so throughput
collapses as nodes multiply; the bid scheduler publishes one rule per
homogeneous batch and stays near-flat.  Interleaved min-of-k rounds so
machine noise hits both schedulers equally.  Its shape gates count, and
time nothing: what a durable batch replicates, and what a placed task
builds before anything uses it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.apps.floyd import floyd_registry, floyd_warshall, run_parallel_floyd
from repro.apps.floyd.serial import random_adjacency
from repro.cn import CNAPI, Cluster, TaskRegistry, TaskSpec, taskmanager
from repro.cn.task import Task


class Noop(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


def registry():
    r = TaskRegistry()
    r.register_class("noop.jar", "bench.Noop", Noop)
    return r


def spec(name):
    return TaskSpec(name=name, jar="noop.jar", cls="bench.Noop", memory=10)


def create_job_with_tasks(cluster, n_tasks):
    api = CNAPI.initialize(cluster)
    handle = api.create_job("bench")
    for i in range(n_tasks):
        api.create_task(handle, spec(f"t{i}"))
    return handle


@pytest.mark.parametrize("nodes", [2, 8, 32])
def test_bench_placement(benchmark, nodes):
    with Cluster(nodes, registry=registry(), memory_per_node=10**6) as cluster:
        benchmark.pedantic(
            create_job_with_tasks,
            args=(cluster, 16),
            rounds=3,
            iterations=1,
        )


def test_bus_traffic_scales_with_nodes(report):
    rows = []
    for nodes in (2, 8, 32):
        with Cluster(nodes, registry=registry(), memory_per_node=10**6) as cluster:
            create_job_with_tasks(cluster, 16)
            stats = cluster.bus.stats
            rows.append(
                [nodes, stats.solicitations, stats.deliveries, stats.responses]
            )
    report.line("PERF3 -- multicast traffic for 1 job + 16 task placements")
    report.line()
    report.table(["nodes", "solicitations", "deliveries", "responses"], rows)
    # deliveries = solicitations x nodes: discovery cost grows linearly
    for (nodes, solicitations, deliveries, _) in rows:
        assert deliveries == solicitations * nodes
    assert rows[0][2] < rows[1][2] < rows[2][2]


def test_placement_spreads_load(report):
    with Cluster(8, registry=registry(), memory_per_node=10**6) as cluster:
        handle = create_job_with_tasks(cluster, 64)
        nodes = [handle.job.task(f"t{i}").node_name for i in range(64)]
        counts = {n: nodes.count(n) for n in sorted(set(nodes))}
    report.line("PERF3 -- 64 equal tasks over 8 nodes (best-fit placement)")
    report.line()
    report.table(["taskmanager", "tasks placed"], list(counts.items()))
    assert len(counts) == 8, "placement failed to use all nodes"
    assert max(counts.values()) - min(counts.values()) <= 1, counts


# -- PERF16: placement throughput, solicit vs bid ----------------------------

SWEEP_NODES = (2, 8, 32, 64)
N_TASKS = 256
ROUNDS = 3
SPEEDUP_FLOOR = 5.0       # bid vs solicit at 64 nodes
BID_DEGRADATION_CAP = 0.25  # bid throughput loss allowed from 8 -> 64 nodes


def _measure_placement(scheduler: str, nodes: int) -> tuple[float, int]:
    """One timed batch placement; returns (seconds, bus solicitations).

    Telemetry and durability are off so the measurement isolates the
    placement protocol itself (both schedulers shed the same overheads).
    """
    with Cluster(
        nodes,
        registry=registry(),
        memory_per_node=10**6,
        telemetry=None,
        durable=False,
        scheduler=scheduler,
    ) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("bench")
        specs = [spec(f"t{i}") for i in range(N_TASKS)]
        start = time.perf_counter()
        api.create_tasks(handle, specs)
        elapsed = time.perf_counter() - start
        placed = {
            handle.job.task(f"t{i}").node_name for i in range(N_TASKS)
        }
        assert None not in placed, "a task was left unplaced"
        return elapsed, cluster.bus.stats.solicitations


def test_perf16_bid_scheduler_throughput(report, out_dir):
    best: dict[tuple[str, int], float] = {}
    solicitations: dict[tuple[str, int], int] = {}
    combos = [(s, n) for s in ("solicit", "bid") for n in SWEEP_NODES]
    for _ in range(ROUNDS):  # interleaved min-of-k
        for combo in combos:
            elapsed, solis = _measure_placement(*combo)
            best[combo] = min(best.get(combo, elapsed), elapsed)
            solicitations[combo] = solis
    tput = {combo: N_TASKS / best[combo] for combo in combos}

    report.line(
        f"PERF16 -- placement throughput, {N_TASKS} tasks, "
        f"min of {ROUNDS} interleaved rounds"
    )
    report.line()
    rows = []
    for n in SWEEP_NODES:
        rows.append(
            [
                n,
                f"{tput[('solicit', n)]:.0f}",
                f"{tput[('bid', n)]:.0f}",
                f"{tput[('bid', n)] / tput[('solicit', n)]:.1f}x",
                solicitations[("solicit", n)],
                solicitations[("bid", n)],
            ]
        )
    report.table(
        [
            "nodes",
            "solicit tasks/s",
            "bid tasks/s",
            "speedup",
            "solicit bus rounds",
            "bid bus rounds",
        ],
        rows,
    )

    (out_dir / "BENCH_scheduler.json").write_text(
        json.dumps(
            {
                "n_tasks": N_TASKS,
                "rounds": ROUNDS,
                "tasks_per_second": {
                    f"{sched}/{n}": tput[(sched, n)] for sched, n in combos
                },
                "bus_solicitations": {
                    f"{sched}/{n}": solicitations[(sched, n)] for sched, n in combos
                },
            },
            indent=2,
        )
    )

    # one rule round places the whole batch; solicit pays one per task
    assert solicitations[("bid", 32)] < solicitations[("solicit", 32)] / 10
    # the headline gate: rule-based bidding at 64 nodes
    speedup = tput[("bid", 64)] / tput[("solicit", 64)]
    assert speedup >= SPEEDUP_FLOOR, (
        f"bid scheduler only {speedup:.1f}x faster than solicit at 64 nodes "
        f"(floor {SPEEDUP_FLOOR}x): {tput}"
    )
    # bid placement stays near-flat as the cluster grows...
    degradation = 1 - tput[("bid", 64)] / tput[("bid", 8)]
    assert degradation <= BID_DEGRADATION_CAP, (
        f"bid throughput degraded {degradation:.0%} from 8 to 64 nodes "
        f"(cap {BID_DEGRADATION_CAP:.0%}): {tput}"
    )
    # ...while per-task solicit degrades super-linearly with node count
    assert tput[("solicit", 8)] > 2 * tput[("solicit", 64)], tput


# -- PERF16 shape gate: journal replication of a durable batch (counts only) --

#: bus publishes a 256-task batch may cost on 32 durable nodes, under
#: either scheduler: job-created + one task-spec batch + one task-placed
#: batch per ``create_tasks`` call (3 measured)
PUBLISH_CAP = 6


def _durable_placement(scheduler, partitioned):
    """Place one 256-task batch on 32 durable nodes, every replica's
    ``extend`` wrapped to record which batch (by its first ``seq``) it
    was handed and which object that was, then forward that object
    unchanged; under *partitioned* every node sits in one group, so the
    bus takes its partition branch and blocks nothing."""
    with Cluster(
        32, registry=registry(), memory_per_node=10**6, scheduler=scheduler
    ) as cluster:
        if partitioned:
            cluster.partition(cluster.node_names)
        extends = []
        handed: dict[int, set] = {}  # first seq -> ids of the objects seen
        for server in cluster.servers:
            backend = server.journal.backend

            def recording_extend(batch, _extend=backend.extend, _name=server.name):
                seq = batch[0].seq
                extends.append((_name, seq))
                handed.setdefault(seq, set()).add(id(batch))
                return _extend(batch)

            backend.extend = recording_extend
        api = CNAPI.initialize(cluster)
        handle = api.create_job("bench")
        api.create_tasks(handle, [spec(f"t{i}") for i in range(N_TASKS)])
        stats = cluster.bus.stats
        return SimpleNamespace(
            awards=[handle.job.task(f"t{i}").node_name for i in range(N_TASKS)],
            stats=(stats.deliveries, stats.responses, stats.publishes),
            partitioned=stats.partitioned,
            listener_errors=stats.listener_errors,
            origin=handle.manager.journal.origin,
            written=handle.manager.journal.records(handle.job_id),
            replicas={
                server.name: server.journal.records(handle.job_id)
                for server in cluster.servers
            },
            # copies: the shutdown's cancel is journaled after the placement
            extends=list(extends),
            handed={seq: set(seen) for seq, seen in handed.items()},
            nodes=cluster.node_names,
        )


@pytest.mark.parametrize("scheduler", ["bid", "solicit"])
def test_perf16_durable_batch_replicates_in_batches(scheduler):
    """Counts repeat exactly, so nothing is timed: the journal of one
    durable 256-task placement is replicated in a handful of bus events,
    every replica still holds all 513 records in ``seq`` order, and each
    publish reaches every backend exactly once.  A partition that blocks
    nothing changes none of it."""
    open_run = _durable_placement(scheduler, partitioned=False)
    publishes = open_run.stats[2]
    assert publishes <= PUBLISH_CAP, publishes
    assert open_run.listener_errors == 0
    written = open_run.written
    assert len(written) == 2 * N_TASKS + 1  # created + specs + placements
    assert [r.seq for r in written] == sorted(r.seq for r in written)
    for name, records in open_run.replicas.items():
        assert records == written, name
    # the shape gate: each publish is one extend per backend -- the
    # origin's own write-ahead append and one delivery to each of the 31
    # peers; the origin's replica of its own batch is skipped, not re-applied
    reached = Counter(open_run.extends)
    assert set(reached.values()) == {1}, reached.most_common(3)
    batches = {seq for _, seq in reached}
    assert len(batches) == publishes
    for node in open_run.nodes:
        assert {seq for name, seq in reached if name == node} == batches, node
    # ... and hands all 32 backends the one object the writer built, not
    # a copy per replica
    assert set(open_run.handed) == batches
    for seq, objects in open_run.handed.items():
        assert len(objects) == 1, (seq, objects)

    cut_run = _durable_placement(scheduler, partitioned=True)
    assert cut_run.partitioned == 0
    assert cut_run.awards == open_run.awards
    assert cut_run.stats == open_run.stats
    assert cut_run.origin == open_run.origin
    assert cut_run.replicas == open_run.replicas
    assert sorted(cut_run.extends) == sorted(open_run.extends)


# -- PERF16 shape gate: a placed task builds only what it uses (counts only) --


def _count_constructions(monkeypatch) -> Counter:
    """Patch the constructors of a hosting's queue, of ``threading.Event``
    and of ``threading.Condition`` (what ``make_condition`` builds) to
    count each call by name."""
    built: Counter = Counter()

    def counting(name, make):
        def construct(*args, **kwargs):
            built[name] += 1
            return make(*args, **kwargs)

        return construct

    monkeypatch.setattr(
        taskmanager, "MessageQueue", counting("MessageQueue", taskmanager.MessageQueue)
    )
    monkeypatch.setattr(threading, "Event", counting("Event", threading.Event))
    monkeypatch.setattr(threading, "Condition", counting("Condition", threading.Condition))
    return built


@pytest.mark.parametrize("scheduler", ["bid", "solicit"])
def test_perf16_placing_tasks_that_never_start_builds_no_queue(scheduler, monkeypatch):
    """The paper's per-task queue is built on first use: placing 256 tasks
    that are never sent to nor started builds no queue, no Event and no
    Condition for them."""
    with Cluster(
        32, registry=registry(), memory_per_node=10**6, scheduler=scheduler
    ) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("bench")
        built = _count_constructions(monkeypatch)
        api.create_tasks(handle, [spec(f"t{i}") for i in range(N_TASKS)])
        monkeypatch.undo()
        assert all(rt.hosting is not None for rt in handle.job.tasks.values())
    assert dict(built) == {}, built


def test_perf16_floyd_builds_one_queue_per_receiving_task(monkeypatch):
    """Floyd N=32 on 4 workers: every worker and the joiner receive, the
    splitter does not, so the run builds 5 hosting queues."""
    matrix = random_adjacency(32, seed=3)
    with Cluster(3, registry=floyd_registry()) as cluster:
        built = _count_constructions(monkeypatch)
        result, _ = run_parallel_floyd(matrix, n_workers=4, cluster=cluster)
        monkeypatch.undo()
    assert result == floyd_warshall(matrix)
    assert built["MessageQueue"] == 4 + 1, built
