"""Step 3 in process reads the rows the XMI writer's calls build.

The writer makes the calls expat makes for the text it writes, so the
:class:`XDocument` built from them is, slot for slot, the one built from
``write_model``'s text, with and without ``xsl:strip-space``; and the
pipeline, which never writes the text, renders it when it is read.
"""

import random

import pytest

from benchmarks.e2e.workloads import ComposeWide
from repro.apps.floyd.model import build_fig3_model
from repro.apps.montecarlo import build_pi_model
from repro.apps.wordcount import build_wordcount_model
from repro.core.transform import Pipeline, PipelineResult
from repro.core.transform.cnx2code import cnx_to_java
from repro.core.transform.xmi2cnx import load_stylesheet, xmi_document, xmi_to_cnx_text
from repro.core.uml import Model
from repro.core.xmi.writer import XmiWriter, write_model
from repro.xslt.xpath.datamodel import XDocument, build_document

from ..xmi.test_xmi_bytes import MODELS

SLOTS = [slot for slot in XDocument.__slots__ if slot != "__weakref__"]
SHEET_STRIPS = load_stylesheet("xmi2cnx.xsl").compiled().strips
STRIPS = {
    "none": None,
    "sheet": SHEET_STRIPS,
    "some": lambda name: name.startswith("UML:") and name != "UML:ActionState",
}
WORDS = "model job task cluster node queue bus split join fork xmi cnx uml".split()


def as_model(graph):
    """A graph as step 1 wraps it."""
    model = Model(graph.name)
    model.new_package("cn").add_graph(graph)
    return model


def portal_mix_models(count=600, seed=0):
    """Pi and word-count models in the six shapes ``portal-mix`` submits."""
    rng = random.Random(seed)
    for i in range(count):
        workers = 2 + (i // 2) % 3
        if i % 2 == 0:
            graph = build_pi_model(
                samples=rng.randrange(400, 2000), seed=rng.randrange(10**6), n_workers=workers
            )
        else:
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(100, 400)))
            graph = build_wordcount_model(text=text, shards=rng.randint(2, 8), n_mappers=workers)
        yield as_model(graph)


def assert_same_rows(model, strips_by_name=STRIPS):
    text = write_model(model)
    for strips in strips_by_name.values():
        by_writer = build_document(XmiWriter(model).write, strips=strips)
        by_text = build_document(text, strips=strips)
        for slot in SLOTS:
            assert getattr(by_writer, slot) == getattr(by_text, slot), slot
        assert list(by_writer.index) == list(by_text.index)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_writer_builds_the_rows_its_text_gives(name):
    assert_same_rows(MODELS[name]())


def test_the_same_rows_on_fig3_and_the_compose_model():
    assert_same_rows(as_model(build_fig3_model()))
    assert_same_rows(as_model(ComposeWide().model(0)))


def test_the_same_rows_on_portal_mix_models():
    pipeline_strips = {"none": None, "sheet": SHEET_STRIPS}
    for model in portal_mix_models():
        assert_same_rows(model, pipeline_strips)


def test_step_3_writes_the_same_cnx_from_rows_as_from_text():
    compose = as_model(ComposeWide().model(0))
    for model in (MODELS["dynamic_escapes"](), MODELS["multi_job"](), compose):
        assert xmi_to_cnx_text(xmi_document(model)) == xmi_to_cnx_text(write_model(model))


def test_the_xmi_text_is_rendered_when_read():
    result = Pipeline().run(ComposeWide().model(0), execute=False)
    assert "xmi_text" not in vars(result) and "java_source" not in vars(result)
    assert result.xmi_text == write_model(result.model)
    assert result.java_source == cnx_to_java(result.cnx_doc)


def test_given_artifacts_are_returned_as_given():
    done = Pipeline().run(build_fig3_model(), execute=False)
    result = PipelineResult(
        done.model,
        cnx_doc=done.cnx_doc,
        cnx_text=done.cnx_text,
        python_source=done.python_source,
        xmi_text="<given/>",
        java_source="class Given {}",
    )
    assert (result.xmi_text, result.java_source) == ("<given/>", "class Given {}")
    assert (result.job_results, result.step_seconds, result.results) == ([], {}, {})
