"""Ablation -- coordination channel: CN messaging vs tuple spaces.

Paper section 3 mentions both channels ("CN also supports communication
via tuple spaces") without comparing them.  We run the same reduction-
style workload both ways and compare wall-clock and code-visible
behaviour: static message routing (each worker told its chunk) vs
tuple-space work stealing (workers pull shards until poisoned).
"""

from __future__ import annotations

import time

import pytest

from repro.apps.montecarlo import pi_registry, run_parallel_pi
from repro.apps.wordcount import (
    count_words_serial,
    run_parallel_wordcount,
    wordcount_registry,
)
from repro.cn import Cluster

TEXT = (
    "model driven architecture for cluster computing "
    "activity diagrams compose jobs from tasks "
) * 40


@pytest.fixture(scope="module")
def wc_cluster():
    with Cluster(4, registry=wordcount_registry(), memory_per_node=64000) as c:
        yield c


@pytest.fixture(scope="module")
def pi_cluster():
    with Cluster(4, registry=pi_registry(), memory_per_node=64000) as c:
        yield c


def test_bench_messaging_workload(benchmark, pi_cluster):
    """Static message-routed split/worker/join (Monte Carlo pi)."""

    def run_once():
        estimate, _ = run_parallel_pi(
            samples=20000, seed=1, n_workers=4, cluster=pi_cluster
        )
        return estimate

    benchmark.pedantic(run_once, rounds=3, iterations=1)


def test_bench_tuplespace_workload(benchmark, wc_cluster):
    """Tuple-space work-stealing map/reduce (word count)."""

    def run_once():
        histogram, _ = run_parallel_wordcount(
            TEXT, shards=12, n_mappers=4, cluster=wc_cluster
        )
        return histogram

    histogram = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert histogram == count_words_serial(TEXT)


def test_channel_comparison_report(report, wc_cluster):
    """Same word-count job at several shard granularities: tuple-space
    stealing tolerates skewed shard sizes without re-planning."""
    rows = []
    for shards in (4, 12, 48):
        start = time.perf_counter()
        histogram, outcome = run_parallel_wordcount(
            TEXT, shards=shards, n_mappers=4, cluster=wc_cluster
        )
        elapsed = time.perf_counter() - start
        assert histogram == count_words_serial(TEXT)
        processed = [
            outcome.results[f"wcmap{i}"]["processed"] for i in range(1, 5)
        ]
        # conservation: every deposited shard is stolen exactly once
        assert sum(processed) == outcome.results["wcsplit"]["shards"]
        rows.append([shards, f"{elapsed * 1000:.1f} ms", processed])
    report.line("ABLATION -- tuple-space work stealing at shard granularities")
    report.line("(per-mapper shard counts adapt at run time -- no static plan;")
    report.line(" a fast mapper may drain most of the space, which is the point)")
    report.line()
    report.table(["shards", "wall-clock", "shards per mapper"], rows)
