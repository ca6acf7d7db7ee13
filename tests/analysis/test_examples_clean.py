"""Tier-1 guard: every descriptor the example drivers produce must come
back from the analyzer with zero error-severity diagnostics.

The examples build their models through the app builders, so analyzing
the descriptors those builders produce (through the full model -> XMI ->
CNX pipeline) covers every composition a user can reach from
``examples/``."""

import pytest

from repro.analysis.passes import analyze_source
from repro.apps.floyd.model import build_fig3_model, build_fig5_model
from repro.apps.matmul.driver import build_matmul_model
from repro.apps.montecarlo import build_pi_model
from repro.apps.wordcount import build_wordcount_model
from repro.core.cnx import emit
from repro.core.transform.xmi2cnx import xmi_to_cnx_native
from repro.core.uml import ActivityBuilder
from repro.core.uml.model import Model
from repro.core.xmi import write_graph


def multi_job_model() -> Model:
    """The examples/multi_job_client.py workflow: a diamond of 4 jobs."""
    model = Model("Workflow")
    pkg = model.new_package("client")
    for name in ("prepare", "analyzeA", "analyzeB", "report"):
        b = ActivityBuilder(name)
        t = b.task(
            f"{name}-work", jar="stage.jar", cls="demo.Stage",
            params=[("String", name)],
        )
        b.chain(b.initial(), t, b.final())
        pkg.add_graph(b.build())
    pkg.order_jobs("prepare", "analyzeA")
    pkg.order_jobs("prepare", "analyzeB")
    pkg.order_jobs("analyzeA", "report")
    pkg.order_jobs("analyzeB", "report")
    return model


GRAPH_BUILDERS = {
    "floyd-fig3": lambda: build_fig3_model(n_workers=5),
    "floyd-fig5-dynamic": lambda: build_fig5_model(matrix_source="m.txt", sink=""),
    "montecarlo-pi": lambda: build_pi_model(samples=1000, seed=1, n_workers=3),
    "wordcount": lambda: build_wordcount_model(text="a b c", shards=8, n_mappers=4),
    "matmul": lambda: build_matmul_model(source="mat.txt", n_workers=4),
}


class TestExampleDescriptorsClean:
    @pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS))
    def test_single_job_examples(self, name):
        graph = GRAPH_BUILDERS[name]()
        # the XMI the portal would receive
        xmi_text = write_graph(graph)
        assert analyze_source(xmi_text).ok, name
        # the CNX descriptor the pipeline produces from it
        cnx_text = emit(xmi_to_cnx_native(xmi_text))
        report = analyze_source(cnx_text)
        assert report.ok, report.render(title=name)

    def test_multi_job_example(self):
        from repro.core.transform.xmi2cnx import model_to_cnx

        cnx_text = emit(model_to_cnx(multi_job_model()))
        report = analyze_source(cnx_text)
        assert report.ok, report.render(title="multi-job")
