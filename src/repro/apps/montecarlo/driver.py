"""Model builder and driver for the Monte Carlo pi job."""

from __future__ import annotations

from typing import Optional

from repro.cn.cluster import Cluster
from repro.cn.registry import TaskRegistry
from repro.core.transform.pipeline import Pipeline, PipelineResult
from repro.core.uml.activity import ActivityGraph
from repro.core.uml.builder import ActivityBuilder

from .tasks import PiJoin, PiSplit, PiWorker

__all__ = ["build_pi_model", "register_pi_tasks", "pi_registry", "run_parallel_pi"]

SPLIT_JAR = "pisplit.jar"
SPLIT_CLASS = "org.jhpc.cn2.montecarlo.PiSplit"
WORKER_JAR = "piworker.jar"
WORKER_CLASS = "org.jhpc.cn2.montecarlo.PiWorker"
JOIN_JAR = "pijoin.jar"
JOIN_CLASS = "org.jhpc.cn2.montecarlo.PiJoin"


def register_pi_tasks(registry: TaskRegistry) -> TaskRegistry:
    registry.register_class(SPLIT_JAR, SPLIT_CLASS, PiSplit)
    registry.register_class(WORKER_JAR, WORKER_CLASS, PiWorker)
    registry.register_class(JOIN_JAR, JOIN_CLASS, PiJoin)
    return registry


def pi_registry() -> TaskRegistry:
    return register_pi_tasks(TaskRegistry())


def build_pi_model(
    *, samples: int = 100_000, seed: int = 0, n_workers: int = 4, name: str = "MonteCarloPi"
) -> ActivityGraph:
    """split -> fork -> N workers -> join -> joiner, pi flavored."""
    b = ActivityBuilder(name)
    split = b.task(
        "pisplit",
        jar=SPLIT_JAR,
        cls=SPLIT_CLASS,
        params=[("Integer", str(samples)), ("Integer", str(seed))],
    )
    workers = [
        b.task(
            f"piworker{i}",
            jar=WORKER_JAR,
            cls=WORKER_CLASS,
            params=[("Integer", str(i))],
        )
        for i in range(1, n_workers + 1)
    ]
    joiner = b.task("pijoin", jar=JOIN_JAR, cls=JOIN_CLASS)
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, joiner)
    b.chain(joiner, b.final())
    return b.build()


def run_parallel_pi(
    *,
    samples: int = 100_000,
    seed: int = 0,
    n_workers: int = 4,
    cluster: Optional[Cluster] = None,
    timeout: float = 60.0,
) -> tuple[float, PipelineResult]:
    """Pipeline-run the pi job; returns ``(estimate, pipeline_result)``."""
    graph = build_pi_model(samples=samples, seed=seed, n_workers=n_workers)
    registry = pi_registry() if cluster is None else register_pi_tasks(cluster.registry)
    outcome = Pipeline().run(graph, cluster, registry=registry, timeout=timeout)
    return outcome.results["pijoin"]["pi"], outcome
