"""Fig. 6 pipeline tests and CLI coverage."""

import json

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
from repro.core.transform.cli import main as cli_main
from repro.core.transform.pipeline import Pipeline, run_pipeline
from repro.core.transform.xmi2cnx import xmi_to_cnx_native


@pytest.fixture
def floyd_cluster():
    with Cluster(4, registry=floyd_registry()) as c:
        yield c


def small_graph(n=12, workers=3, seed=5):
    matrix = random_weighted_graph(n, seed=seed)
    source = store_matrix(f"pipeline-test-{seed}-{n}", matrix)
    return matrix, build_fig3_model(n_workers=workers, matrix_source=source, sink="")


class TestPipeline:
    def test_all_artifacts_produced(self, floyd_cluster):
        matrix, graph = small_graph()
        outcome = Pipeline().run(graph, floyd_cluster, timeout=60)
        assert "<XMI" in outcome.xmi_text
        assert "<cn2>" in outcome.cnx_text
        assert "def run(cluster" in outcome.python_source
        assert "public class TransClosure" in outcome.java_source
        assert set(outcome.step_seconds) == {
            "1-model", "2-xmi", "3-cnx", "4-codegen", "5-deploy", "6-execute",
        }

    def test_execution_matches_serial(self, floyd_cluster):
        matrix, graph = small_graph()
        outcome = Pipeline().run(graph, floyd_cluster, timeout=60)
        assert np.allclose(outcome.results["tctask999"], floyd_warshall(matrix))

    def test_native_transform_same_result(self, floyd_cluster):
        # the native transformer is the oracle: nothing selects it, a test
        # calls it and runs what it produced
        matrix, graph = small_graph(seed=6)
        pipeline = Pipeline()
        doc = xmi_to_cnx_native(pipeline.export_xmi(pipeline.to_model(graph)))
        client = pipeline.deploy(pipeline.to_client(doc))
        (results,) = client.run(floyd_cluster, None, 60)
        assert np.allclose(results["tctask999"], floyd_warshall(matrix))

    def test_execute_false_stops_after_generation(self):
        _, graph = small_graph(seed=7)
        outcome = Pipeline().run(graph, execute=False)
        assert outcome.job_results == []
        assert "6-execute" not in outcome.step_seconds

    def test_invalid_model_rejected_at_step1(self):
        from repro.core.uml import ActivityGraph

        bad = ActivityGraph("bad")
        bad.add_action("floating")
        with pytest.raises(Exception):
            Pipeline().run(bad, execute=False)

    def test_invalid_transform_name(self):
        # which transformer runs is not an input any more
        with pytest.raises(TypeError):
            Pipeline(transform="magic")
        with pytest.raises(TypeError):
            run_pipeline(small_graph(seed=8)[1], transform="magic", execute=False)

    def test_run_pipeline_passes_run_keywords(self, floyd_cluster):
        matrix, graph = small_graph(seed=8)
        outcome = run_pipeline(graph, floyd_cluster, timeout=60)
        assert outcome.job_results

    def test_owns_cluster_when_none_given(self):
        matrix, graph = small_graph(seed=9)
        outcome = Pipeline().run(
            graph, registry=floyd_registry(), timeout=60
        )
        assert np.allclose(outcome.results["tctask999"], floyd_warshall(matrix))


class TestCli:
    def test_example_xmi(self, capsys):
        assert cli_main(["example-xmi", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "<XMI" in out and "tctask2" in out and "tctask3" not in out

    def test_cnx_subcommand(self, tmp_path, capsys):
        cli_main(["example-xmi", "--workers", "2"])
        xmi = capsys.readouterr().out
        path = tmp_path / "m.xmi"
        path.write_text(xmi)
        assert cli_main(["cnx", str(path)]) == 0
        out = capsys.readouterr().out
        assert "<cn2>" in out and 'depends="tctask0"' in out

    def test_python_subcommand(self, tmp_path, capsys):
        cli_main(["example-xmi"])
        path = tmp_path / "m.xmi"
        path.write_text(capsys.readouterr().out)
        assert cli_main(["python", str(path)]) == 0
        assert "def run(cluster" in capsys.readouterr().out

    def test_java_subcommand(self, tmp_path, capsys):
        cli_main(["example-xmi"])
        path = tmp_path / "m.xmi"
        path.write_text(capsys.readouterr().out)
        assert cli_main(["java", str(path)]) == 0
        assert "public class TransClosure" in capsys.readouterr().out

    def test_transform_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as refused:
            cli_main(["cnx", str(tmp_path / "m.xmi"), "--transform", "native"])
        assert refused.value.code == 2
        assert "--transform" in capsys.readouterr().err

    def test_run_subcommand(self, tmp_path, capsys, monkeypatch):
        matrix = random_weighted_graph(8, seed=3)
        from repro.apps.floyd.io import write_matrix

        write_matrix(tmp_path / "matrix.txt", matrix)
        monkeypatch.chdir(tmp_path)
        cli_main(["example-xmi", "--workers", "2", "--matrix", "matrix.txt"])
        xmi = capsys.readouterr().out
        (tmp_path / "m.xmi").write_text(xmi)
        assert cli_main(["run", str(tmp_path / "m.xmi"), "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "tctask999" in out
