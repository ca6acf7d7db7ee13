"""Model builder and driver for the matrix-multiplication job."""

from __future__ import annotations

import itertools
import threading
from typing import Optional, Sequence

from repro.cn.cluster import Cluster
from repro.cn.registry import TaskRegistry
from repro.core.transform.pipeline import Pipeline, PipelineResult
from repro.core.uml.activity import ActivityGraph
from repro.core.uml.builder import ActivityBuilder

from .tasks import MatJoin, MatSplit, MatWorker, drop_pair, store_pair

__all__ = [
    "build_matmul_model",
    "register_matmul_tasks",
    "matmul_registry",
    "run_parallel_matmul",
]

SPLIT_JAR = "matsplit.jar"
SPLIT_CLASS = "org.jhpc.cn2.matmul.MatSplit"
WORKER_JAR = "matworker.jar"
WORKER_CLASS = "org.jhpc.cn2.matmul.MatWorker"
JOIN_JAR = "matjoin.jar"
JOIN_CLASS = "org.jhpc.cn2.matmul.MatJoin"

_counter = itertools.count(1)
_lock = threading.Lock()


def register_matmul_tasks(registry: TaskRegistry) -> TaskRegistry:
    registry.register_class(SPLIT_JAR, SPLIT_CLASS, MatSplit)
    registry.register_class(WORKER_JAR, WORKER_CLASS, MatWorker)
    registry.register_class(JOIN_JAR, JOIN_CLASS, MatJoin)
    return registry


def matmul_registry() -> TaskRegistry:
    return register_matmul_tasks(TaskRegistry())


def build_matmul_model(
    *, source: str, n_workers: int = 4, name: str = "MatMul"
) -> ActivityGraph:
    b = ActivityBuilder(name)
    split = b.task(
        "matsplit", jar=SPLIT_JAR, cls=SPLIT_CLASS, params=[("String", source)]
    )
    workers = [
        b.task(
            f"matworker{i}",
            jar=WORKER_JAR,
            cls=WORKER_CLASS,
            params=[("Integer", str(i))],
        )
        for i in range(1, n_workers + 1)
    ]
    joiner = b.task("matjoin", jar=JOIN_JAR, cls=JOIN_CLASS)
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, joiner)
    b.chain(joiner, b.final())
    return b.build()


def run_parallel_matmul(
    a: Sequence[Sequence[float]],
    b: Sequence[Sequence[float]],
    *,
    n_workers: int = 4,
    cluster: Optional[Cluster] = None,
    timeout: float = 60.0,
) -> tuple[list[list[float]], PipelineResult]:
    """Pipeline-run C = A @ B; returns ``(C, pipeline_result)``."""
    with _lock:
        key = f"matmul-{next(_counter)}"
    source = store_pair(key, a, b)
    try:
        graph = build_matmul_model(source=source, n_workers=n_workers)
        registry = (
            matmul_registry()
            if cluster is None
            else register_matmul_tasks(cluster.registry)
        )
        outcome = Pipeline().run(graph, cluster, registry=registry, timeout=timeout)
    finally:
        # the store is process-wide and outlives the cluster: the staged
        # pair goes once the run has returned
        drop_pair(key)
    return outcome.results["matjoin"], outcome
