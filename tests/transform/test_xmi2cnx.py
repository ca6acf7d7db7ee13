"""XMI2CNX tests: Fig. 2 fidelity plus XSLT-vs-native differential
testing (including property-based random job shapes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.floyd.model import build_fig3_model, build_fig5_model
from repro.core.cnx import emit, parse
from repro.core.transform import xmi2cnx
from repro.core.transform.xmi2cnx import (
    model_to_cnx,
    xmi_to_cnx,
    xmi_to_cnx_native,
    xmi_to_cnx_text,
)
from repro.core.uml import ActivityBuilder, Model
from repro.core.xmi import write_graph
from repro.core.xmi.writer import write_model


def normalize(doc):
    """Order-insensitive view of a CNX document for differential checks."""
    return [
        (
            job.name or "",
            [
                (
                    t.name,
                    t.jar,
                    t.cls,
                    tuple(sorted(t.depends)),
                    t.task_req.memory,
                    t.task_req.runmodel,
                    tuple((p.type, p.value) for p in t.params),
                    t.dynamic,
                    t.multiplicity,
                    t.arguments,
                )
                for t in sorted(job.tasks, key=lambda t: t.name)
            ],
        )
        for job in doc.client.jobs
    ] + [(doc.client.cls, doc.client.port)]


class TestFig2Fidelity:
    def test_descriptor_matches_fig2(self):
        xmi = write_graph(build_fig3_model(n_workers=5))
        doc = xmi_to_cnx(xmi, log="CN_Client1047909210005.log")
        client = doc.client
        assert client.cls == "TransClosure"
        assert client.port == 5666
        job = client.jobs[0]
        assert job.task_names() == [
            "tctask0", "tctask1", "tctask2", "tctask3", "tctask4", "tctask5", "tctask999",
        ]
        split = job.find("tctask0")
        assert split.jar == "tasksplit.jar"
        assert split.cls == "org.jhpc.cn2.transcloser.TaskSplit"
        assert split.depends == []
        assert split.params[0].value == "matrix.txt"
        for i in range(1, 6):
            worker = job.find(f"tctask{i}")
            assert worker.jar == "tctask.jar"
            assert worker.cls == "org.jhpc.cn2.trnsclsrtask.TCTask"
            # Fig. 2 erratum: the paper shows tctask1 depending on itself;
            # the correct dependency (and our output) is tctask0
            assert worker.depends == ["tctask0"]
            assert worker.params[0].value == str(i)
            assert worker.task_req.memory == 1000
            assert worker.task_req.runmodel == "RUN_AS_THREAD_IN_TM"
        joiner = job.find("tctask999")
        assert joiner.jar == "taskjoin.jar"
        assert sorted(joiner.depends) == [f"tctask{i}" for i in range(1, 6)]

    def test_stylesheet_params(self):
        xmi = write_graph(build_fig3_model(n_workers=2))
        text = xmi_to_cnx_text(xmi, log="my.log", port=7000)
        assert 'log="my.log"' in text
        assert 'port="7000"' in text

    def test_dynamic_fig5(self):
        xmi = write_graph(build_fig5_model())
        doc = xmi_to_cnx(xmi)
        worker = doc.client.jobs[0].find("tctask")
        assert worker.dynamic
        assert worker.multiplicity == "0..*"
        assert "n_workers" in worker.arguments
        joiner = doc.client.jobs[0].find("taskjoin")
        assert joiner.depends == ["tctask"]

    def test_tab_and_cr_in_arguments_survive_every_writer(self):
        """A parser normalises a tab or CR written as itself in an
        attribute value to a space, so the XMI writer, the engine's
        serialiser and the CNX emitter write them as references."""
        arguments = "[['a\tb\rc\nd']]"
        b = ActivityBuilder("Blanks")
        worker = b.dynamic_task("w", jar="w.jar", cls="W", argument_expr=arguments)
        b.chain(b.initial(), worker, b.final())
        doc = xmi_to_cnx(write_graph(b.build()))
        assert doc.client.jobs[0].find("w").arguments == arguments
        assert parse(emit(doc)).client.jobs[0].find("w").arguments == arguments


class TestDifferential:
    def test_fig3_xslt_equals_native(self):
        xmi = write_graph(build_fig3_model(n_workers=5))
        assert normalize(xmi_to_cnx(xmi)) == normalize(xmi_to_cnx_native(xmi))

    def test_fig5_xslt_equals_native(self):
        xmi = write_graph(build_fig5_model())
        assert normalize(xmi_to_cnx(xmi)) == normalize(xmi_to_cnx_native(xmi))

    def test_graph_to_cnx_skips_xmi(self):
        # a graph reaches CNX through XMI: no third route beside the
        # stylesheet and the native oracle
        with pytest.raises(AttributeError):
            xmi2cnx.graph_to_cnx  # noqa: B018

    def test_depends_in_transition_order_at_12_workers(self):
        """Unpadded names stop sorting in document order at w10: both
        paths list ``depends`` in transition order, so the descriptors
        are equal as text, not just as sets."""
        b = ActivityBuilder("Wide")
        split = b.task("split", jar="s.jar", cls="S")
        workers = [b.task(f"w{i}", jar="w.jar", cls="W") for i in range(12)]
        join = b.task("join", jar="j.jar", cls="J")
        b.chain(b.initial(), split)
        b.fan_out_in(split, workers, join)
        b.chain(join, b.final())
        xmi = write_graph(b.build())
        native = xmi_to_cnx_native(xmi)
        assert native.client.jobs[0].find("join").depends == [f"w{i}" for i in range(12)]
        assert emit(xmi_to_cnx(xmi)) == emit(native)

    @given(
        n_workers=st.integers(1, 8),
        n_stages=st.integers(0, 3),
        memory=st.integers(1, 5000),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_shapes_agree(self, n_workers, n_stages, memory):
        b = ActivityBuilder("G")
        split = b.task("split", jar="s.jar", cls="S", memory=memory,
                       params=[("String", "in.txt")])
        workers = [
            b.task(f"w{i}", jar="w.jar", cls="W", memory=memory,
                   params=[("Integer", str(i))])
            for i in range(1, n_workers + 1)
        ]
        join = b.task("join", jar="j.jar", cls="J", memory=memory)
        b.chain(b.initial(), split)
        if n_workers > 1:
            b.fan_out_in(split, workers, join)
        else:
            b.chain(split, workers[0], join)
        tail = join
        for s in range(n_stages):
            stage = b.task(f"stage{s}", jar="x.jar", cls="X", memory=memory)
            b.chain(tail, stage)
            tail = stage
        b.chain(tail, b.final())
        xmi = write_graph(b.build())
        assert normalize(xmi_to_cnx(xmi)) == normalize(xmi_to_cnx_native(xmi))


class TestMultiJob:
    def test_model_with_two_jobs(self):
        model = Model("M")
        pkg = model.new_package("p")
        for label in ("JobA", "JobB"):
            b = ActivityBuilder(label)
            t = b.task("t", jar="x.jar", cls="X")
            b.chain(b.initial(), t, b.final())
            pkg.add_graph(b.build())
        xmi = write_model(model)
        doc = xmi_to_cnx(xmi)
        assert len(doc.client.jobs) == 2
        assert doc.client.cls == "JobA"  # first graph names the client
        native = xmi_to_cnx_native(xmi)
        assert normalize(doc) == normalize(native)

    def test_empty_model_rejected(self):
        model = Model("empty")
        model.new_package("p")
        with pytest.raises(ValueError, match="no activity graphs"):
            model_to_cnx(model)


class TestEmittedDescriptor:
    def test_emit_valid_and_reparseable(self):
        from repro.core.cnx import parse, validate

        xmi = write_graph(build_fig3_model())
        doc = xmi_to_cnx(xmi)
        validate(doc)
        reparsed = parse(emit(doc))
        assert normalize(reparsed) == normalize(doc)
