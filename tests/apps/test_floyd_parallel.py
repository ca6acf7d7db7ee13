"""Parallel Floyd (the guiding example) through the full pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.floyd import (
    build_fig3_model,
    build_fig5_model,
    floyd_registry,
    floyd_warshall,
    partition_rows,
    random_adjacency,
    random_weighted_graph,
    run_parallel_floyd,
    run_parallel_floyd_dynamic,
    transitive_closure,
)
from repro.apps.floyd.io import MatrixStore
from repro.cn import Cluster
from repro.cn.config import TRANSPORTS


@pytest.fixture(scope="module")
def shared_cluster():
    with Cluster(4, registry=floyd_registry(), memory_per_node=64000, slots_per_node=256) as c:
        yield c


class TestPartition:
    def test_even_split(self):
        assert partition_rows(10, 5) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]

    def test_uneven_split_front_loaded(self):
        assert partition_rows(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_workers_than_rows(self):
        ranges = partition_rows(2, 5)
        assert ranges[:2] == [(0, 1), (1, 2)]
        assert all(start == end for start, end in ranges[2:])

    def test_single_worker(self):
        assert partition_rows(7, 1) == [(0, 7)]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            partition_rows(5, 0)

    @given(st.integers(0, 200), st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, n, workers):
        ranges = partition_rows(n, workers)
        assert len(ranges) == workers
        # contiguous cover of [0, n) with balanced sizes
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 == s2
        sizes = [e - s for s, e in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestParallelCorrectness:
    @pytest.mark.parametrize("n,workers", [(6, 2), (13, 4), (20, 5), (9, 9)])
    def test_matches_serial(self, shared_cluster, n, workers):
        matrix = random_weighted_graph(n, seed=n * 7 + workers)
        result, _ = run_parallel_floyd(
            matrix, n_workers=workers, cluster=shared_cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))

    def test_more_workers_than_rows(self, shared_cluster):
        matrix = random_weighted_graph(3, seed=1)
        result, _ = run_parallel_floyd(
            matrix, n_workers=6, cluster=shared_cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))

    def test_single_worker(self, shared_cluster):
        matrix = random_weighted_graph(8, seed=2)
        result, _ = run_parallel_floyd(
            matrix, n_workers=1, cluster=shared_cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))

    def test_dynamic_matches_serial(self, shared_cluster):
        matrix = random_weighted_graph(15, seed=3)
        result, _ = run_parallel_floyd_dynamic(
            matrix, n_workers=4, cluster=shared_cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))

    def test_closure_mode(self, shared_cluster):
        adjacency = random_adjacency(12, seed=4)
        result, _ = run_parallel_floyd(
            [[float(v) for v in row] for row in adjacency],
            n_workers=3,
            cluster=shared_cluster,
            mode="closure",
        )
        assert np.array_equal(
            (np.array(result) > 0).astype(int), np.array(transitive_closure(adjacency))
        )

    def test_xslt_transform_end_to_end(self, shared_cluster):
        matrix = random_weighted_graph(10, seed=5)
        result, outcome = run_parallel_floyd(
            matrix, n_workers=3, cluster=shared_cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))
        assert 'class="org.jhpc.cn2.trnsclsrtask.TCTask"' in outcome.cnx_text

    @given(n=st.integers(2, 14), workers=st.integers(1, 6), seed=st.integers(0, 999))
    @settings(max_examples=10, deadline=None)
    def test_random_instances(self, shared_cluster, n, workers, seed):
        matrix = random_weighted_graph(n, seed=seed)
        result, _ = run_parallel_floyd(
            matrix, n_workers=workers, cluster=shared_cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))


class TestMatrixStoreForgets:
    """The store is process-wide; what a driver call stages goes with it."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_five_runs_leave_the_store_as_they_found_it(self, transport):
        staged = MatrixStore.instance()._data
        before = len(staged)
        matrix = random_weighted_graph(8, seed=11)
        with Cluster(4, registry=floyd_registry(), transport=transport) as cluster:
            for run in (run_parallel_floyd, run_parallel_floyd_dynamic) * 2 + (
                run_parallel_floyd,
            ):
                result, _ = run(matrix, n_workers=3, cluster=cluster)
                assert np.allclose(result, floyd_warshall(matrix))
                assert len(staged) == before

    def test_a_run_that_fails_forgets_its_input_too(self, shared_cluster):
        staged = MatrixStore.instance()._data
        before = len(staged)
        with pytest.raises(ValueError):
            run_parallel_floyd(
                random_weighted_graph(4, seed=1), n_workers=0, cluster=shared_cluster
            )
        assert len(staged) == before


class TestModels:
    def test_fig3_model_shape(self):
        g = build_fig3_model(n_workers=5)
        kinds = [v.kind for v in g.vertices]
        assert kinds.count("action") == 7
        assert kinds.count("fork") == 1 and kinds.count("join") == 1
        assert g.find("tctask0").get_tag("jar") == "tasksplit.jar"

    def test_fig5_model_dynamic(self):
        g = build_fig5_model()
        worker = g.find("tctask")
        assert worker.is_dynamic
        assert g.action_dependencies()["taskjoin"] == ["tctask"]

    def test_mode_param_emitted(self):
        g = build_fig3_model(mode="closure")
        from repro.core.uml import CNProfile

        params = CNProfile.params(g.find("tctask0"))
        assert params[-1] == ("String", "closure")
