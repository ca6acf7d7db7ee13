"""The XMI2CNX oracle, called as a function: nothing selects it, so what
the pipeline's transformer selector used to compare is compared here.
``xmi2cnx.xsl`` (what runs) against ``xmi_to_cnx_native``, equal as
emitted text, declared message flows included, over the five app models
and drawn fans.  The generated client is checked against the descriptor
itself (``test_roundtrip_properties.py``), not against a second
generator.
"""

import random

import numpy as np
import pytest

from repro.analysis import analyze_model
from repro.apps.floyd import (
    build_fig3_model,
    build_fig5_model,
    random_weighted_graph,
    store_matrix,
)
from repro.apps.matmul.driver import build_matmul_model
from repro.apps.matmul.tasks import store_pair
from repro.apps.montecarlo import build_pi_model
from repro.apps.wordcount import build_wordcount_model
from repro.core.cnx import emit
from repro.core.transform import xmi_to_cnx_native
from repro.core.transform.xmi2cnx import xmi_to_cnx
from repro.core.uml import ActivityBuilder, CNProfile
from repro.core.xmi import write_graph
from repro.core.xmi.reader import read_model


def fig3():
    source = store_matrix("differential-fig3", random_weighted_graph(9, seed=3))
    return build_fig3_model(n_workers=3, matrix_source=source, sink="")


def fig5():
    source = store_matrix("differential-fig5", random_weighted_graph(9, seed=5))
    return build_fig5_model(matrix_source=source, sink="")


def matmul():
    rng = np.random.default_rng(7)
    a, b = rng.random((6, 5)).tolist(), rng.random((5, 4)).tolist()
    source = store_pair("differential-matmul", a, b)
    return build_matmul_model(source=source, n_workers=3)


def pi():
    return build_pi_model(samples=3000, seed=11, n_workers=3)


def wordcount():
    text = "model job task cluster node queue model task model " * 7
    return build_wordcount_model(text=text, shards=5, n_mappers=3)


MODELS = [fig3, fig5, matmul, pi, wordcount]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_stylesheet_and_native_descriptors_are_the_same_text(model):
    xmi = write_graph(model())
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


def drawn_fan(seed: int):
    """A ``split -> fork -> workers -> join`` model drawn from *seed*:
    0-3 parameters per task, retries, declared message flows and dynamic
    workers."""
    rng = random.Random(seed)
    b = ActivityBuilder(f"Fan{seed}")
    names = [f"w{i}" for i in range(rng.randint(2, 6))]
    workers = []
    for name in names:
        if rng.random() < 0.25:
            workers.append(
                b.dynamic_task(
                    name,
                    jar="d.jar",
                    cls="t.D",
                    multiplicity=rng.choice(["0..*", "1..4"]),
                    argument_expr=rng.choice(["", "[[1], [2]]"]),
                    retries=rng.randint(0, 2),
                )
            )
            continue
        peers = [other for other in names if other != name]
        workers.append(
            b.task(
                name,
                jar="w.jar",
                cls="t.W",
                memory=rng.randint(1, 64),
                params=[
                    (rng.choice(sorted(CNProfile.PARAM_TYPES)), str(rng.randint(0, 99)))
                    for _ in range(rng.randint(0, 3))
                ],
                retries=rng.randint(0, 2),
                sends=rng.sample(peers, rng.randint(0, min(2, len(peers)))),
                receives=rng.sample(peers, rng.randint(0, 1)),
            )
        )
    split = b.task("split", jar="s.jar", cls="t.S", params=[("Integer", "7")])
    join = b.task("join", jar="j.jar", cls="t.J")
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    b.chain(join, b.final())
    return b.build()


@pytest.mark.parametrize("seed", range(16))
def test_stylesheet_and_native_agree_on_drawn_fans(seed):
    xmi = write_graph(drawn_fan(seed))
    assert emit(xmi_to_cnx(xmi)) == emit(xmi_to_cnx_native(xmi))


def test_the_stylesheet_reads_parameters_up_to_a_gap_in_their_indices():
    """``ptype0`` and ``ptype2`` without ``ptype1``: cnlint refuses the
    model at step 1 (CN210); a stylesheet handed it anyway emits the
    parameters before the gap, since it looks them up by index."""
    b = ActivityBuilder("Gap")
    task = b.task("t", jar="t.jar", cls="t.T", params=[("Integer", "1")])
    task.set_tag("ptype2", "String")
    task.set_tag("pvalue2", "two")
    b.chain(b.initial(), task, b.final())
    xmi = write_graph(b.build())
    assert "CN210" in {d.code for d in analyze_model(read_model(xmi)).errors()}
    [emitted] = xmi_to_cnx(xmi).client.jobs[0].tasks
    assert [(p.type, p.value) for p in emitted.params] == [("Integer", "1")]


def test_an_index_with_a_leading_zero_names_no_parameter():
    """``ptype01`` is index 1 on neither path: the stylesheet looks up
    ``ptype1`` by name, so the native reader reads an index only as
    ``str(int)`` writes it."""
    b = ActivityBuilder("Zero")
    task = b.task("t", jar="t.jar", cls="t.T", params=[("Integer", "1")])
    task.set_tag("ptype01", "String")
    task.set_tag("pvalue01", "two")
    b.chain(b.initial(), task, b.final())
    xmi = write_graph(b.build())
    for doc in (xmi_to_cnx(xmi), xmi_to_cnx_native(xmi)):
        [emitted] = doc.client.jobs[0].tasks
        assert [(p.type, p.value) for p in emitted.params] == [("Integer", "1")]
