"""High-level drivers for the transitive-closure / APSP guiding example.

:func:`register_floyd_tasks` binds the paper's jar/class vocabulary to
the Python task implementations; :func:`run_parallel_floyd` runs the
whole Fig. 6 pipeline (model -> XMI -> CNX -> generated client ->
cluster execution) and returns the distance matrix; helpers for the
dynamic (Fig. 5) variant and for tuple-space-based coordination round
out the API the examples and benchmarks use.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Iterator, Optional, Sequence

from repro.cn.cluster import Cluster
from repro.cn.registry import TaskRegistry
from repro.core.transform.pipeline import Pipeline, PipelineResult

from .io import MatrixStore, store_matrix
from .model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
    build_fig3_model,
    build_fig5_model,
)
from .tasks import TaskSplit, TCJoin, TCTask

__all__ = [
    "register_floyd_tasks",
    "ensure_floyd_tasks",
    "floyd_registry",
    "run_parallel_floyd",
    "run_parallel_floyd_dynamic",
]

_store_counter = itertools.count(1)
_store_lock = threading.Lock()


@contextlib.contextmanager
def _staged(prefix: str, matrix: Sequence[Sequence[float]]) -> Iterator[str]:
    """Stage *matrix* in the matrix store under a fresh key for the length
    of one run; yields its ``store:<key>`` source.  The store is
    process-wide and outlives every cluster, so the input goes once the
    run has returned (a retried TaskSplit still finds it while the run is
    under way)."""
    with _store_lock:
        key = f"{prefix}-{next(_store_counter)}"
    source = store_matrix(key, matrix)
    try:
        yield source
    finally:
        MatrixStore.instance().pop(key)


def register_floyd_tasks(registry: TaskRegistry) -> TaskRegistry:
    """Bind the Fig. 2 jar/class names to the Python implementations."""
    registry.register_class(SPLIT_JAR, SPLIT_CLASS, TaskSplit)
    registry.register_class(WORKER_JAR, WORKER_CLASS, TCTask)
    registry.register_class(JOIN_JAR, JOIN_CLASS, TCJoin)
    return registry


def ensure_floyd_tasks(registry: TaskRegistry) -> TaskRegistry:
    """Bind only the Fig. 2 references *missing* from *registry* -- a
    caller-supplied binding (e.g. an instrumented TCTask subclass in the
    failover tests, or a tuned ``checkpoint_every`` variant in the
    benchmarks) is left in place."""
    from repro.cn.errors import TaskLoadError

    for jar, cls_name, impl in (
        (SPLIT_JAR, SPLIT_CLASS, TaskSplit),
        (WORKER_JAR, WORKER_CLASS, TCTask),
        (JOIN_JAR, JOIN_CLASS, TCJoin),
    ):
        try:
            registry.resolve(jar, cls_name)
        except TaskLoadError:
            registry.register_class(jar, cls_name, impl)
    return registry


def floyd_registry() -> TaskRegistry:
    """A fresh registry with the Floyd tasks bound."""
    return register_floyd_tasks(TaskRegistry())


def run_parallel_floyd(
    matrix: Sequence[Sequence[float]],
    *,
    n_workers: int = 5,
    cluster: Optional[Cluster] = None,
    mode: str = "shortest",
    timeout: float = 120.0,
    retries: int = 0,
) -> tuple[list[list[float]], PipelineResult]:
    """Full pipeline run of the Fig. 3 job on *matrix*.

    Returns ``(result_matrix, pipeline_result)``.  The input is staged in
    the matrix store so no files touch disk.  *retries* grants every
    task that retry budget -- required for runs on a chaos cluster."""
    with _staged("floyd", matrix) as source:
        graph = build_fig3_model(
            n_workers=n_workers, matrix_source=source, sink="", mode=mode,
            retries=retries,
        )
        return _execute(graph, cluster, timeout, runtime_args=None,
                        joiner="tctask999")


def run_parallel_floyd_dynamic(
    matrix: Sequence[Sequence[float]],
    *,
    n_workers: int = 5,
    cluster: Optional[Cluster] = None,
    mode: str = "shortest",
    timeout: float = 120.0,
    retries: int = 0,
) -> tuple[list[list[float]], PipelineResult]:
    """Full pipeline run of the Fig. 5 (dynamic invocation) job: the
    worker count is bound at run time through ``runtime_args``."""
    with _staged("floyd-dyn", matrix) as source:
        graph = build_fig5_model(
            matrix_source=source, sink="", mode=mode, retries=retries
        )
        return _execute(
            graph,
            cluster,
            timeout,
            runtime_args={"n_workers": n_workers},
            joiner="taskjoin",
        )


def _execute(graph, cluster, timeout, runtime_args, joiner):
    registry = (
        floyd_registry() if cluster is None else ensure_floyd_tasks(cluster.registry)
    )
    outcome = Pipeline().run(
        graph, cluster, registry=registry, runtime_args=runtime_args, timeout=timeout
    )
    return outcome.results[joiner], outcome
