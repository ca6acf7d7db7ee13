"""The oracles, called as functions: nothing selects them any more, so
what the pipeline's transformer and generator selectors used to compare
is compared here, over the five app models.

* XMI2CNX: ``xmi2cnx.xsl`` (what runs) against ``xmi_to_cnx_native``,
  equal as emitted text, declared message flows included;
* CNX2Py: native ``cnx_to_python`` (what runs) against ``cnx2py.xsl``,
  two different client programs whose runs must return the same results.
"""

import numpy as np
import pytest

from repro.apps.floyd import (
    build_fig3_model,
    build_fig5_model,
    random_weighted_graph,
    register_floyd_tasks,
    store_matrix,
)
from repro.apps.matmul import build_matmul_model, register_matmul_tasks
from repro.apps.matmul.tasks import store_pair
from repro.apps.montecarlo import build_pi_model, register_pi_tasks
from repro.apps.wordcount import build_wordcount_model, register_wordcount_tasks
from repro.cn import Cluster
from repro.cn.registry import TaskRegistry
from repro.core.cnx import emit
from repro.core.transform import (
    GeneratedClient,
    cnx_to_python,
    cnx_to_python_xslt,
    xmi_to_cnx,
    xmi_to_cnx_native,
)
from repro.core.uml import ActivityBuilder
from repro.core.xmi import write_graph


def fig3():
    source = store_matrix("differential-fig3", random_weighted_graph(9, seed=3))
    return build_fig3_model(n_workers=3, matrix_source=source, sink=""), None, "tctask999"


def fig5():
    source = store_matrix("differential-fig5", random_weighted_graph(9, seed=5))
    graph = build_fig5_model(matrix_source=source, sink="")
    return graph, {"n_workers": 3}, "taskjoin"


def matmul():
    rng = np.random.default_rng(7)
    a, b = rng.random((6, 5)).tolist(), rng.random((5, 4)).tolist()
    source = store_pair("differential-matmul", a, b)
    return build_matmul_model(source=source, n_workers=3), None, "matjoin"


def pi():
    return build_pi_model(samples=3000, seed=11, n_workers=3), None, "pijoin"


def wordcount():
    text = "model job task cluster node queue model task model " * 7
    return build_wordcount_model(text=text, shards=5, n_mappers=3), None, "wcreduce"


MODELS = [fig3, fig5, matmul, pi, wordcount]


@pytest.fixture(scope="module")
def cluster():
    registry = TaskRegistry()
    for register in (register_floyd_tasks, register_matmul_tasks,
                     register_pi_tasks, register_wordcount_tasks):
        register(registry)
    with Cluster(4, registry=registry, memory_per_node=64000) as c:
        yield c


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_stylesheet_and_native_descriptors_are_the_same_text(model):
    xmi = write_graph(model()[0])
    assert emit(xmi_to_cnx(xmi)) == emit(xmi_to_cnx_native(xmi))


def test_declared_message_flows_survive_the_stylesheet():
    b = ActivityBuilder("Flow")
    a = b.task("a", jar="e.jar", cls="t.A", sends=["b"])
    receiver = b.task("b", jar="e.jar", cls="t.B", receives=["a"])
    b.chain(b.initial(), a, receiver, b.final())
    xmi = write_graph(b.build())
    doc = xmi_to_cnx(xmi)
    assert [(t.name, t.sends, t.receives) for t in doc.client.jobs[0].tasks] == [
        ("a", ["b"], []),
        ("b", [], ["a"]),
    ]
    assert emit(doc) == emit(xmi_to_cnx_native(xmi))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_native_and_stylesheet_clients_return_the_same_results(model, cluster):
    graph, runtime_args, joiner = model()
    doc = xmi_to_cnx(write_graph(graph))
    native, stylesheet = cnx_to_python(doc), cnx_to_python_xslt(doc)
    # two programs, not one text twice
    assert "XSLT edition" in stylesheet and "XSLT edition" not in native
    # the joiner's result is the job's; which mapper took which shard is a race
    (ran,) = GeneratedClient(native).run(cluster, runtime_args, 60)
    (reran,) = GeneratedClient(stylesheet).run(cluster, runtime_args, 60)
    assert ran[joiner] and reran[joiner] == ran[joiner]
    assert set(reran) == set(ran)
