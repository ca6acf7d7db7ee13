"""The XMI writer's output pinned byte for byte.

Each golden under ``tests/data/xmi_golden/`` is the text ``write_model``
produced for the model of the same name when the writer still rendered
an element tree: element order, attribute order, escaping, two-space
indentation and self-closing empty elements are all part of the pin.
"""

from pathlib import Path

import pytest

from repro.apps.floyd.model import build_fig3_model
from repro.core.uml import ActivityBuilder, Model
from repro.core.uml.activity import ActivityGraph
from repro.core.xmi.reader import read_model
from repro.core.xmi.writer import write_model

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "xmi_golden"

AWKWARD = 'a & b < c > d "e"\nf'


def empty_package():
    model = Model("Empty")
    model.new_package("nothing")
    return model


def no_transitions():
    model = Model("Loose")
    graph = model.new_package("cn").new_graph("Loose")
    graph.add_initial()
    state = graph.add_action("t")
    state.set_tag("jar", "t.jar")
    state.set_tag("class", "pkg.T")
    graph.add_final()
    return model


def bare_vertices():
    model = Model("Bare")
    graph = model.new_package("cn").new_graph("Bare")
    graph.add_initial()
    graph.add_action("untagged")
    graph.add_fork("f")
    graph.add_join("j")
    graph.add_final()
    graph.add_transition(graph.find("f"), graph.find("j"))
    return model


def dynamic_escapes():
    b = ActivityBuilder('Dyn & "co"')
    source = b.task("src", jar="a&b.jar", cls="x.<Y>", params=[("String", AWKWARD)])
    workers = b.dynamic_task(
        "w",
        jar="w.jar",
        cls="x.W",
        multiplicity=AWKWARD,
        argument_expr='[[1, "<&>"], [2, "\n"]]',
    )
    b.chain(b.initial(), source, workers, b.final())
    model = Model('M<&>"')
    model.new_package("p\nq").add_graph(b.build())
    return model


def multi_job():
    model = Model("Workflow")
    package = model.new_package("cn")
    for name in ("A", "B", "C"):
        b = ActivityBuilder(name)
        b.chain(b.initial(), b.task(f"{name.lower()}1", jar="e.jar", cls="t.E"), b.final())
        package.add_graph(b.build())
    package.add_graph(ActivityGraph("Empty"))
    package.order_jobs("A", "B")
    package.order_jobs("A", "C")
    package.order_jobs("B", "C")
    return model


def fig3():
    graph = build_fig3_model(n_workers=5)
    model = Model("model")
    model.new_package("cn").add_graph(graph)
    return model


MODELS = {
    "empty_package": empty_package,
    "no_transitions": no_transitions,
    "bare_vertices": bare_vertices,
    "dynamic_escapes": dynamic_escapes,
    "multi_job": multi_job,
    "fig3": fig3,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_write_model_bytes_are_pinned(name):
    golden = (GOLDEN / f"{name}.xmi").read_text(encoding="utf-8")
    assert write_model(MODELS[name]()) == golden


def test_escaped_values_read_back():
    model = read_model(write_model(dynamic_escapes()))
    (graph,) = model.all_graphs()
    assert graph.name == 'Dyn & "co"'
    workers = graph.find("w")
    assert workers.dynamic_multiplicity == AWKWARD
    assert workers.dynamic_arguments == '[[1, "<&>"], [2, "\n"]]'
    assert graph.find("src").get_tag("jar") == "a&b.jar"
