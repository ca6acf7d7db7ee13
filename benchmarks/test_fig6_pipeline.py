"""FIG6 -- paper Fig. 6: "Transformation of UML model to executable CN
client specification".

Runs all six steps the figure draws -- model, XMI export, XMI2CNX (the
real stylesheet), CNX2Py, deployment, execution -- on the guiding
example, verifying each intermediate artifact and that the executed
computation equals the serial Floyd baseline.  Per-step timings are
benchmarked individually so the pipeline's cost profile is visible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.floyd import (
    build_fig3_model,
    floyd_registry,
    floyd_warshall,
    random_weighted_graph,
    store_matrix,
)
from repro.cn import Cluster
from repro.core.cnx import emit
from repro.core.transform.cnx2code import GeneratedClient, cnx_to_python
from repro.core.transform.pipeline import Pipeline
from repro.core.transform.xmi2cnx import xmi_to_cnx, xmi_to_cnx_native
from repro.core.xmi import write_graph

N = 20
WORKERS = 4


@pytest.fixture(scope="module")
def matrix():
    return random_weighted_graph(N, seed=2007)


@pytest.fixture(scope="module")
def graph(matrix):
    source = store_matrix("fig6-input", matrix)
    return build_fig3_model(n_workers=WORKERS, matrix_source=source, sink="")


@pytest.fixture(scope="module")
def cluster():
    with Cluster(4, registry=floyd_registry(), memory_per_node=64000) as c:
        yield c


class TestFig6Steps:
    def test_all_six_steps(self, graph, matrix, cluster, report):
        pipeline = Pipeline()
        outcome = pipeline.run(graph, cluster, timeout=120)
        # step 1: validated model
        assert outcome.model.all_graphs()[0].name == "TransClosure"
        # step 2: XMI document
        assert outcome.xmi_text.startswith("<XMI")
        # step 3: CNX client descriptor via XSLT
        assert "<cn2>" in outcome.cnx_text
        # step 4: client program in the target language
        assert "def run(cluster" in outcome.python_source
        assert "public class TransClosure" in outcome.java_source
        # steps 5+6: deployed and executed, result equals serial baseline
        assert np.allclose(outcome.results["tctask999"], floyd_warshall(matrix))
        report.line("FIG6 -- pipeline steps and wall-clock seconds")
        report.line()
        report.table(
            ["step", "seconds"],
            [[k, f"{v:.4f}"] for k, v in sorted(outcome.step_seconds.items())],
        )

    def test_xslt_and_native_transforms_agree_end_to_end(self, graph, matrix, cluster):
        outcome = Pipeline().run(graph, cluster, timeout=120)
        oracle = xmi_to_cnx_native(outcome.xmi_text)
        assert emit(oracle) == outcome.cnx_text
        (results,) = GeneratedClient(cnx_to_python(oracle)).run(cluster, None, 120)
        assert np.allclose(outcome.results["tctask999"], results["tctask999"])


class TestFig6StepBenchmarks:
    def test_bench_step2_xmi_export(self, benchmark, graph):
        xmi = benchmark(write_graph, graph)
        assert "<UML:ActivityGraph" in xmi

    def test_bench_step3_xslt_transform(self, benchmark, graph):
        xmi = write_graph(graph)
        doc = benchmark(xmi_to_cnx, xmi)
        assert len(doc.client.jobs[0].tasks) == WORKERS + 2

    def test_bench_step4_codegen(self, benchmark, graph):
        doc = xmi_to_cnx(write_graph(graph))
        source = benchmark(cnx_to_python, doc)
        assert "api.start_job(handle)" in source

    def test_bench_step5_deploy(self, benchmark, graph):
        source = cnx_to_python(xmi_to_cnx(write_graph(graph)))
        client = benchmark(GeneratedClient, source)
        assert client.source == source

    def test_bench_step6_execute(self, benchmark, graph, matrix, cluster):
        source = cnx_to_python(xmi_to_cnx(write_graph(graph)))
        client = GeneratedClient(source)

        def execute():
            return client.run(cluster, timeout=120)

        job_results = benchmark.pedantic(execute, rounds=3, iterations=1)
        assert np.allclose(job_results[0]["tctask999"], floyd_warshall(matrix))
