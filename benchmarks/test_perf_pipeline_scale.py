"""PERF6 -- whole-pipeline scale: production-size jobs end to end.

How does the full Fig. 6 chain behave as the job grows?  We run models
of 10/50/150 tasks through every step (XSLT transform included) and
execute them on the simulated cluster with no-op tasks, so the numbers
isolate composition cost from workload compute.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cn import Cluster, Task, TaskRegistry, TaskSpec
from repro.cn.taskmanager import TaskManager
from repro.core.transform.pipeline import Pipeline
from repro.core.uml import ActivityBuilder


class Noop(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


def registry():
    r = TaskRegistry()
    r.register_class("noop.jar", "scale.Noop", Noop)
    return r


def wide_model(n_workers: int):
    b = ActivityBuilder("Scale")
    split = b.task("split", jar="noop.jar", cls="scale.Noop", memory=1)
    workers = [
        b.task(f"w{i}", jar="noop.jar", cls="scale.Noop", memory=1)
        for i in range(n_workers)
    ]
    join = b.task("join", jar="noop.jar", cls="scale.Noop", memory=1)
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    b.chain(join, b.final())
    return b.build()


@pytest.mark.parametrize("tasks", [10, 50])
def test_bench_pipeline_scale(benchmark, tasks):
    model = wide_model(tasks)

    def run_once():
        with Cluster(4, registry=registry(), memory_per_node=10**6,
                     slots_per_node=1024) as cluster:
            return Pipeline().run(model, cluster, timeout=120)

    outcome = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert len(outcome.results) == tasks + 2


@pytest.mark.parametrize("tasks", [10, 50, 150])
def test_run_path_claims_each_task_once(monkeypatch, tasks):
    """Count-only sibling of the near-linear transform gate below: the
    run path stays linear in the roster when every completion wakes only
    its dependents, i.e. each task is claimed exactly once.  (With a
    roster scan and a claim of every ready task per completion the
    150-worker fan read about 50 claim attempts per task.)"""
    claims = [0]
    real_start = TaskManager.start_task

    def start_task(self, *args, **kwargs):
        claims[0] += 1
        return real_start(self, *args, **kwargs)

    monkeypatch.setattr(TaskManager, "start_task", start_task)
    with Cluster(4, registry=registry(), memory_per_node=10**6,
                 slots_per_node=1024) as cluster:
        outcome = Pipeline().run(wide_model(tasks), cluster, timeout=120)
    assert len(outcome.results) == tasks + 2
    assert claims[0] / (tasks + 2) == 1.0


def test_warm_op_starts_few_task_threads(monkeypatch):
    """Count-only: an attempt runs on a parked task thread of its node
    when one is idle.  Starting one thread per attempt read 152 starts
    per op; parked threads read 20-22 on the first op of a cluster and
    4-12 on each op after it (2-core container)."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        if self.name.startswith("cn-task-"):
            started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    model = wide_model(150)
    with Cluster(4, registry=registry(), memory_per_node=10**6,
                 slots_per_node=1024) as cluster:
        Pipeline().run(model, cluster, timeout=120)
        for _ in range(3):
            started.clear()
            outcome = Pipeline().run(model, cluster, timeout=120)
            assert len(outcome.results) == 152
            assert len(started) <= 20


def test_attempt_reads_depends_a_constant_number_of_times(monkeypatch):
    """Count-only: an attempt's context is handed the roster view of its
    job, derived once per roster version.  Rebuilding the dependency map
    per attempt read ``TaskSpec.depends`` 158 times per attempt on the
    152-task fan (N + 6); the roster view reads 7."""
    reads = [0]

    def getattribute(self, name):
        if name == "depends":
            reads[0] += 1
        return object.__getattribute__(self, name)

    monkeypatch.setattr(TaskSpec, "__getattribute__", getattribute)
    with Cluster(4, registry=registry(), memory_per_node=10**6,
                 slots_per_node=1024) as cluster:
        outcome = Pipeline().run(wide_model(150), cluster, timeout=120)
    assert len(outcome.results) == 152
    assert reads[0] / 152 <= 8


def test_scale_report(report):
    rows = []
    for tasks in (10, 50, 150):
        model = wide_model(tasks)
        with Cluster(4, registry=registry(), memory_per_node=10**6,
                     slots_per_node=1024) as cluster:
            start = time.perf_counter()
            outcome = Pipeline().run(model, cluster, timeout=300)
            total = time.perf_counter() - start
        assert len(outcome.results) == tasks + 2
        steps = outcome.step_seconds
        rows.append(
            [
                tasks,
                f"{steps.get('2-xmi', 0) * 1000:.0f} ms",
                f"{steps.get('3-cnx', 0) * 1000:.0f} ms",
                f"{steps.get('6-execute', 0) * 1000:.0f} ms",
                f"{total * 1000:.0f} ms",
            ]
        )
    report.line("PERF6 -- full pipeline at production job sizes (no-op tasks)")
    report.line()
    report.table(["tasks", "XMI export", "XSLT->CNX", "execute", "total"], rows)
    # transform cost must stay near-linear: 15x tasks < 40x cost
    def ms(value: str) -> float:
        return float(value.split()[0])

    assert ms(rows[2][2]) < 40 * max(ms(rows[0][2]), 1.0)
