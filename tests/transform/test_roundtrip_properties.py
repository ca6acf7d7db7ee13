"""Property-based roundtrips across the whole artifact chain.

Random job graphs (hypothesis-generated DAG shapes, tags, params) must
survive: model -> XMI -> model, model -> XMI -> XSLT -> CNX -> emit ->
parse, and CNX -> generated client -> the calls it makes on the CN API.
"""

import string
from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cn import TaskSpec
from repro.core.cnx import emit, parse
from repro.core.transform.xmi2cnx import model_to_cnx, xmi_to_cnx_native
from repro.core.uml import ActivityBuilder, Model
from repro.core.xmi import read_graphs, write_graph

from ..conftest import record_client

_name_alphabet = string.ascii_lowercase + string.digits
_names = st.text(alphabet=_name_alphabet, min_size=1, max_size=8)
_values = st.text(
    alphabet=string.ascii_letters + string.digits + " ._-/",
    max_size=12,
)


@st.composite
def job_graphs(draw):
    """A random valid split -> stages-of-workers -> join job graph."""
    b = ActivityBuilder("G" + draw(_names))
    n_layers = draw(st.integers(1, 3))
    previous = b.task(
        "entry",
        jar=draw(_names) + ".jar",
        cls="pkg." + draw(_names),
        memory=draw(st.integers(1, 9999)),
        params=[("String", draw(_values))],
    )
    b.chain(b.initial(), previous)
    for layer in range(n_layers):
        width = draw(st.integers(1, 4))
        workers = [
            b.task(
                f"L{layer}w{i}",
                jar=draw(_names) + ".jar",
                cls="pkg." + draw(_names),
                memory=draw(st.integers(1, 9999)),
                params=[
                    ("Integer", str(draw(st.integers(0, 999))))
                    for _ in range(draw(st.integers(0, 2)))
                ],
            )
            for i in range(width)
        ]
        sink = b.task(f"L{layer}sink", jar="s.jar", cls="pkg.Sink")
        b.fan_out_in(previous, workers, sink)
        previous = sink
    b.chain(previous, b.final())
    return b.build()


@st.composite
def job_models(draw):
    """One to three :func:`job_graphs` in a package, in a drawn document
    order, with a drawn ``after`` partial order over them."""
    graphs = draw(
        st.lists(job_graphs(), min_size=1, max_size=3, unique_by=lambda g: g.name)
    )
    model = Model("M")
    package = model.new_package("client")
    for graph in graphs:
        package.add_graph(graph)
    ranked = draw(st.permutations([g.name for g in graphs]))
    for i, before in enumerate(ranked):
        for later in ranked[i + 1:]:
            if draw(st.booleans()):
                package.order_jobs(before, later)
    return model


def typed_fields(spec):
    values = [(f.name, getattr(spec, f.name)) for f in fields(spec)]
    return [(name, type(value), value) for name, value in values]


def graph_signature(graph):
    return {
        "name": graph.name,
        "deps": graph.action_dependencies(),
        "tags": {a.name: a.tags_dict() for a in graph.action_states()},
    }


def cnx_signature(doc):
    return {
        "cls": doc.client.cls,
        "tasks": {
            t.name: (
                t.jar,
                t.cls,
                tuple(sorted(t.depends)),
                t.task_req.memory,
                t.task_req.runmodel,
                tuple((p.type, p.value) for p in t.params),
            )
            for job in doc.client.jobs
            for t in job.tasks
        },
    }


class TestModelXmiRoundtrip:
    @given(job_graphs())
    @settings(max_examples=25, deadline=None)
    def test_xmi_roundtrip_preserves_model(self, graph):
        restored = read_graphs(write_graph(graph))[0]
        assert graph_signature(restored) == graph_signature(graph)

    @given(job_graphs())
    @settings(max_examples=15, deadline=None)
    def test_double_export_stable(self, graph):
        once = write_graph(graph)
        twice = write_graph(read_graphs(once)[0])
        assert once == twice


class TestCnxChainRoundtrip:
    @given(job_graphs())
    @settings(max_examples=25, deadline=None)
    def test_emit_parse_roundtrip(self, graph):
        doc = xmi_to_cnx_native(write_graph(graph))
        reparsed = parse(emit(doc))
        assert cnx_signature(reparsed) == cnx_signature(doc)

    @given(job_graphs())
    @settings(max_examples=15, deadline=None)
    def test_xmi_path_equals_direct_path(self, graph):
        model = Model(graph.name)
        model.new_package("client").add_graph(graph)
        direct = model_to_cnx(model)
        via_xmi = xmi_to_cnx_native(write_graph(graph))
        assert cnx_signature(direct) == cnx_signature(via_xmi)

    @given(job_models())
    @settings(max_examples=25, deadline=None)
    def test_generated_client_rebuilds_document(self, model):
        """The calls the generated client makes rebuild its descriptor:
        each job is created once, its ``create_task`` specs equal the
        job's tasks field by field, it is started and then waited on, and
        no job is created before every job it is ``after`` was waited on.
        ``run`` returns the results in document order."""
        doc = model_to_cnx(model)
        expected = [
            [typed_fields(TaskSpec.from_cnx(task)) for task in job.tasks]
            for job in doc.jobs
        ]
        assume(len(set(map(repr, expected))) == len(expected))
        calls, job_results = record_client(doc)
        specs: dict[int, list] = {}
        for verb, handle, spec in calls:
            if verb == "create_task":
                specs.setdefault(handle, []).append(typed_fields(spec))
        assert all(tasks in expected for tasks in specs.values())
        job_of = {handle: expected.index(tasks) for handle, tasks in specs.items()}
        steps = [(verb, job_of[handle]) for verb, handle, _ in calls]
        at = {step: n for n, step in enumerate(steps) if step[0] != "create_task"}
        assert len(at) == len(steps) - sum(len(job.tasks) for job in doc.jobs)
        verbs = ("create_job", "start_job", "wait")
        assert set(at) == {(verb, j) for j in range(len(doc.jobs)) for verb in verbs}
        for n, (verb, j) in enumerate(steps):
            if verb == "create_task":
                assert at["create_job", j] < n < at["start_job", j]
        names = [job.name for job in doc.jobs]
        for j, job in enumerate(doc.jobs):
            assert at["start_job", j] < at["wait", j]
            for before in job.after:
                assert at["wait", names.index(before)] < at["create_job", j]
        returned = [job_of[result["handle"]] for result in job_results]
        assert returned == list(range(len(doc.jobs)))
