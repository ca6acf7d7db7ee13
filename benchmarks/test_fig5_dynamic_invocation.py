"""FIG5 -- paper Fig. 5: "Activity diagram for transitive closure using
dynamic invocation".

The worker becomes a single dynamic-invocation action state with
multiplicity ``0..*``; "the number of concurrent invocations is
determined by a run-time expression that evaluates to a set of actual
argument lists, one for each invocation".

This bench regenerates the diagram, pushes it through the pipeline, and
runs the SAME descriptor at several run-time worker counts, asserting
the expansion count follows the runtime argument and the computed
shortest paths stay correct.  It also serves as the ablation of explicit
(Fig. 3) vs dynamic (Fig. 5) composition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.floyd import (
    build_fig5_model,
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    run_parallel_floyd,
    run_parallel_floyd_dynamic,
)
from repro.cn import Cluster
from repro.core.transform.xmi2cnx import xmi_to_cnx
from repro.core.xmi import write_graph


@pytest.fixture(scope="module")
def cluster():
    with Cluster(4, registry=floyd_registry(), memory_per_node=64000, slots_per_node=256) as c:
        yield c


class TestFig5Shape:
    def test_diagram_structure(self):
        graph = build_fig5_model()
        worker = graph.find("tctask")
        assert worker.is_dynamic
        assert worker.dynamic_multiplicity == "0..*"
        assert worker.dynamic_arguments  # run-time expression present
        # one worker state, not N: dynamic invocation replaces the fan-out
        assert len(graph.action_states()) == 3
        assert not any(v.kind in ("fork", "join") for v in graph.vertices)

    def test_descriptor_carries_dynamic_attributes(self):
        doc = xmi_to_cnx(write_graph(build_fig5_model()))
        worker = doc.client.jobs[0].find("tctask")
        assert worker.dynamic
        assert worker.multiplicity == "0..*"
        assert "n_workers" in worker.arguments


class TestFig5Execution:
    @pytest.mark.parametrize("runtime_workers", [1, 3, 6])
    def test_runtime_worker_count(self, cluster, runtime_workers):
        matrix = random_weighted_graph(12, seed=runtime_workers)
        result, outcome = run_parallel_floyd_dynamic(
            matrix, n_workers=runtime_workers, cluster=cluster
        )
        assert np.allclose(result, floyd_warshall(matrix))
        # one expanded task per argument list, named tctask1..N
        names = set(outcome.job_results[0])
        assert {f"tctask{k}" for k in range(1, runtime_workers + 1)} <= names

    def test_same_descriptor_different_runtimes(self, cluster, report):
        """The point of Fig. 5: one model, worker count chosen at run time."""
        matrix = random_weighted_graph(16, seed=99)
        expected = floyd_warshall(matrix)
        rows = []
        for workers in (2, 4, 8):
            result, outcome = run_parallel_floyd_dynamic(
                matrix, n_workers=workers, cluster=cluster
            )
            assert np.allclose(result, expected)
            expanded = sum(1 for n in outcome.job_results[0] if n.startswith("tctask") and n != "tctask999")
            rows.append([workers, expanded])
            assert expanded == workers + 1 or expanded == workers  # + split naming overlap
        report.line("FIG5 -- dynamic invocation: one model, run-time worker counts")
        report.line()
        report.table(["runtime n_workers", "expanded tasks (tctask*)"], rows)


class TestExplicitVsDynamicAblation:
    def test_same_answer_both_styles(self, cluster):
        matrix = random_weighted_graph(14, seed=7)
        explicit, _ = run_parallel_floyd(
            matrix, n_workers=4, cluster=cluster
        )
        dynamic, _ = run_parallel_floyd_dynamic(
            matrix, n_workers=4, cluster=cluster
        )
        assert np.allclose(explicit, dynamic)

    def test_descriptor_size_scaling(self, report):
        """Explicit descriptors grow with N; the dynamic descriptor is
        constant-size -- the practical argument for Fig. 5."""
        from repro.apps.floyd import build_fig3_model
        from repro.core.cnx import emit

        rows = []
        for n in (2, 8, 32):
            explicit_doc = xmi_to_cnx(write_graph(build_fig3_model(n_workers=n)))
            dynamic_doc = xmi_to_cnx(write_graph(build_fig5_model()))
            rows.append([n, len(emit(explicit_doc)), len(emit(dynamic_doc))])
        report.line("FIG5 ablation -- descriptor bytes: explicit vs dynamic")
        report.line()
        report.table(["workers", "explicit bytes", "dynamic bytes"], rows)
        explicit_sizes = [r[1] for r in rows]
        dynamic_sizes = [r[2] for r in rows]
        assert explicit_sizes[0] < explicit_sizes[1] < explicit_sizes[2]
        assert dynamic_sizes[0] == dynamic_sizes[1] == dynamic_sizes[2]


def test_bench_fig5_expansion(benchmark, cluster):
    matrix = random_weighted_graph(10, seed=3)

    def run_once():
        result, _ = run_parallel_floyd_dynamic(
            matrix, n_workers=4, cluster=cluster
        )
        return result

    result = benchmark(run_once)
    assert np.allclose(result, floyd_warshall(matrix))
