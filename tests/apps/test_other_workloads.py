"""Monte Carlo pi and tuple-space word count workloads."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.montecarlo import (
    build_pi_model,
    estimate_pi_serial,
    pi_registry,
    run_parallel_pi,
)
from repro.apps.wordcount import (
    build_wordcount_model,
    count_words_serial,
    run_parallel_wordcount,
    tokenize_words,
    wordcount_registry,
)
from repro.cn import Cluster


@pytest.fixture(scope="module")
def pi_cluster():
    with Cluster(4, registry=pi_registry(), memory_per_node=64000) as c:
        yield c


@pytest.fixture(scope="module")
def wc_cluster():
    with Cluster(4, registry=wordcount_registry(), memory_per_node=64000) as c:
        yield c


class TestMonteCarlo:
    def test_estimate_close_to_pi(self, pi_cluster):
        estimate, _ = run_parallel_pi(
            samples=60000, seed=1, n_workers=4, cluster=pi_cluster
        )
        assert abs(estimate - math.pi) < 0.05

    def test_deterministic_for_seed(self, pi_cluster):
        a, _ = run_parallel_pi(
            samples=10000, seed=5, n_workers=3, cluster=pi_cluster
        )
        b, _ = run_parallel_pi(
            samples=10000, seed=5, n_workers=3, cluster=pi_cluster
        )
        assert a == b

    def test_sample_count_preserved(self, pi_cluster):
        from repro.core.transform.pipeline import Pipeline

        graph = build_pi_model(samples=10007, seed=2, n_workers=3)
        outcome = Pipeline().run(graph, pi_cluster, timeout=60)
        join = outcome.results["pijoin"]
        assert join["samples"] == 10007

    def test_serial_baseline_sane(self):
        assert abs(estimate_pi_serial(50000, seed=3) - math.pi) < 0.05

    def test_model_shape(self):
        g = build_pi_model(n_workers=6)
        assert len(g.action_states()) == 8
        deps = g.action_dependencies()
        assert deps["pijoin"] == sorted(f"piworker{i}" for i in range(1, 7))


TEXT = (
    "the quick brown fox jumps over the lazy dog "
    "pack my box with five dozen liquor jugs "
    "how vexingly quick daft zebras jump "
) * 8


class TestWordCount:
    def test_matches_serial(self, wc_cluster):
        parallel, _ = run_parallel_wordcount(
            TEXT, shards=7, n_mappers=3, cluster=wc_cluster
        )
        assert parallel == count_words_serial(TEXT)

    def test_single_mapper(self, wc_cluster):
        parallel, _ = run_parallel_wordcount(
            TEXT, shards=4, n_mappers=1, cluster=wc_cluster
        )
        assert parallel == count_words_serial(TEXT)

    def test_more_mappers_than_shards(self, wc_cluster):
        parallel, _ = run_parallel_wordcount(
            "alpha beta alpha", shards=1, n_mappers=4, cluster=wc_cluster,
        )
        assert parallel == {"alpha": 2, "beta": 1}

    def test_work_stealing_covers_all_shards(self, wc_cluster):
        from repro.core.transform.pipeline import Pipeline

        graph = build_wordcount_model(text=TEXT, shards=10, n_mappers=3)
        outcome = Pipeline().run(graph, wc_cluster, timeout=60)
        processed = sum(
            outcome.results[f"wcmap{i}"]["processed"] for i in (1, 2, 3)
        )
        assert processed == outcome.results["wcsplit"]["shards"]

    def test_tokenizer(self):
        assert tokenize_words("It's A test, a TEST.") == ["it's", "a", "test", "a", "test"]

    @given(st.text(alphabet="ab c", max_size=60), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_random_texts(self, wc_cluster, text, shards, mappers):
        parallel, _ = run_parallel_wordcount(
            text or "x", shards=shards, n_mappers=mappers, cluster=wc_cluster,
        )
        assert parallel == count_words_serial(text or "x")
