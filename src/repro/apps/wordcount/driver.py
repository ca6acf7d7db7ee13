"""Model builder and driver for the tuple-space word-count job."""

from __future__ import annotations

from typing import Optional

from repro.cn.cluster import Cluster
from repro.cn.registry import TaskRegistry
from repro.core.transform.pipeline import Pipeline, PipelineResult
from repro.core.uml.activity import ActivityGraph
from repro.core.uml.builder import ActivityBuilder

from .tasks import WordMapper, WordReducer, WordSplit

__all__ = ["build_wordcount_model", "register_wordcount_tasks", "wordcount_registry", "run_parallel_wordcount"]

SPLIT_JAR = "wcsplit.jar"
SPLIT_CLASS = "org.jhpc.cn2.wordcount.WordSplit"
MAPPER_JAR = "wcmap.jar"
MAPPER_CLASS = "org.jhpc.cn2.wordcount.WordMapper"
REDUCER_JAR = "wcreduce.jar"
REDUCER_CLASS = "org.jhpc.cn2.wordcount.WordReducer"


def register_wordcount_tasks(registry: TaskRegistry) -> TaskRegistry:
    registry.register_class(SPLIT_JAR, SPLIT_CLASS, WordSplit)
    registry.register_class(MAPPER_JAR, MAPPER_CLASS, WordMapper)
    registry.register_class(REDUCER_JAR, REDUCER_CLASS, WordReducer)
    return registry


def wordcount_registry() -> TaskRegistry:
    return register_wordcount_tasks(TaskRegistry())


def build_wordcount_model(
    *, text: str, shards: int = 8, n_mappers: int = 4, name: str = "WordCount"
) -> ActivityGraph:
    b = ActivityBuilder(name)
    split = b.task(
        "wcsplit",
        jar=SPLIT_JAR,
        cls=SPLIT_CLASS,
        params=[("String", text), ("Integer", str(shards))],
    )
    mappers = [
        b.task(
            f"wcmap{i}",
            jar=MAPPER_JAR,
            cls=MAPPER_CLASS,
            params=[("Integer", str(i))],
        )
        for i in range(1, n_mappers + 1)
    ]
    reducer = b.task("wcreduce", jar=REDUCER_JAR, cls=REDUCER_CLASS)
    b.chain(b.initial(), split)
    b.fan_out_in(split, mappers, reducer)
    b.chain(reducer, b.final())
    return b.build()


def run_parallel_wordcount(
    text: str,
    *,
    shards: int = 8,
    n_mappers: int = 4,
    cluster: Optional[Cluster] = None,
    timeout: float = 60.0,
) -> tuple[dict[str, int], PipelineResult]:
    """Pipeline-run the word-count job; returns ``(histogram, result)``."""
    graph = build_wordcount_model(text=text, shards=shards, n_mappers=n_mappers)
    registry = (
        wordcount_registry()
        if cluster is None
        else register_wordcount_tasks(cluster.registry)
    )
    outcome = Pipeline().run(graph, cluster, registry=registry, timeout=timeout)
    return outcome.results["wcreduce"], outcome
