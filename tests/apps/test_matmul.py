"""Matrix-multiplication workload tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.floyd.io import MatrixStore
from repro.apps.matmul import (
    build_matmul_model,
    matmul_registry,
    matmul_serial,
    run_parallel_matmul,
    store_pair,
)
from repro.cn import Cluster, TaskFailedError


@pytest.fixture(scope="module")
def cluster():
    with Cluster(4, registry=matmul_registry(), memory_per_node=64000) as c:
        yield c


def random_matrix(rng, rows, cols):
    return rng.uniform(-5, 5, size=(rows, cols)).tolist()


class TestCorrectness:
    @pytest.mark.parametrize("m,k,n,workers", [(8, 6, 7, 2), (16, 16, 16, 4), (5, 9, 3, 5)])
    def test_matches_numpy(self, cluster, m, k, n, workers):
        rng = np.random.default_rng(m * 100 + n)
        a, b = random_matrix(rng, m, k), random_matrix(rng, k, n)
        c, _ = run_parallel_matmul(a, b, n_workers=workers, cluster=cluster)
        assert np.allclose(c, matmul_serial(a, b))

    def test_more_workers_than_rows(self, cluster):
        rng = np.random.default_rng(7)
        a, b = random_matrix(rng, 2, 4), random_matrix(rng, 4, 3)
        c, _ = run_parallel_matmul(a, b, n_workers=6, cluster=cluster)
        assert np.allclose(c, matmul_serial(a, b))

    def test_single_worker(self, cluster):
        rng = np.random.default_rng(8)
        a, b = random_matrix(rng, 6, 6), random_matrix(rng, 6, 6)
        c, _ = run_parallel_matmul(a, b, n_workers=1, cluster=cluster)
        assert np.allclose(c, matmul_serial(a, b))

    def test_shape_mismatch_fails_job(self, cluster):
        rng = np.random.default_rng(9)
        a, b = random_matrix(rng, 4, 3), random_matrix(rng, 5, 2)
        with pytest.raises(TaskFailedError, match="shape mismatch"):
            run_parallel_matmul(a, b, n_workers=2, cluster=cluster)

    @given(
        m=st.integers(1, 10),
        k=st.integers(1, 10),
        n=st.integers(1, 10),
        workers=st.integers(1, 4),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_shapes(self, cluster, m, k, n, workers, seed):
        rng = np.random.default_rng(seed)
        a, b = random_matrix(rng, m, k), random_matrix(rng, k, n)
        c, _ = run_parallel_matmul(a, b, n_workers=workers, cluster=cluster)
        assert np.allclose(c, matmul_serial(a, b))


class TestMatrixStoreForgets:
    def test_runs_leave_the_store_as_they_found_it(self, cluster):
        staged = MatrixStore.instance()._data
        before = len(staged)
        rng = np.random.default_rng(3)
        a, b = random_matrix(rng, 6, 5), random_matrix(rng, 5, 4)
        for _ in range(5):
            result, _ = run_parallel_matmul(a, b, n_workers=2, cluster=cluster)
            assert np.allclose(result, matmul_serial(a, b))
            assert len(staged) == before
        with pytest.raises(TaskFailedError):
            run_parallel_matmul(a, a, n_workers=2, cluster=cluster)  # 6x5 @ 6x5
        assert len(staged) == before


class TestModel:
    def test_shape(self):
        g = build_matmul_model(source="store:x", n_workers=3)
        kinds = [v.kind for v in g.vertices]
        assert kinds.count("action") == 5
        deps = g.action_dependencies()
        assert deps["matjoin"] == ["matworker1", "matworker2", "matworker3"]

    def test_descriptor_through_xslt(self, cluster):
        rng = np.random.default_rng(10)
        a, b = random_matrix(rng, 6, 5), random_matrix(rng, 5, 4)
        c, outcome = run_parallel_matmul(a, b, n_workers=2, cluster=cluster)
        assert np.allclose(c, matmul_serial(a, b))
        assert 'class="org.jhpc.cn2.matmul.MatWorker"' in outcome.cnx_text
