"""CNX schema / parser / emitter / validator tests against paper Fig. 2."""

import pytest

from repro.analysis import analyze_cnx
from repro.core.cnx import (
    CnxClient,
    CnxDocument,
    CnxJob,
    CnxParam,
    CnxParseError,
    CnxTask,
    CnxTaskReq,
    CnxValidationError,
    emit,
    parse,
    validate,
)
from repro.util import dag
from repro.util.xmlutil import xml_equal

# Fig. 2 of the paper, with the published erratum corrected: the listing
# shows tctask1 depends="tctask1" (a self-dependency typo); every other
# worker depends on tctask0, so we use tctask0 throughout.
FIG2 = """<?xml version="1.0"?>
<cn2>
<client class="TransClosure" log="CN_Client1047909210005.log" port="5666">
<job>
<task name="tctask0" jar="tasksplit.jar"
 class="org.jhpc.cn2.transcloser.TaskSplit" depends="">
<task-req>
<memory>1000</memory>
<runmodel>RUN_AS_THREAD_IN_TM</runmodel>
</task-req>
<param type="String">matrix.txt</param>
</task>
<task name="tctask1" jar="tctask.jar"
 class="org.jhpc.cn2.trnsclsrtask.TCTask" depends="tctask0">
<param type="Integer">1</param>
<task-req>
<memory>1000</memory>
<runmodel>RUN_AS_THREAD_IN_TM</runmodel>
</task-req>
</task>
<task name="tctask999" jar="taskjoin.jar"
 class="org.jhpc.cn2.transcloser.TaskJoin" depends="tctask1">
<task-req>
<memory>1000</memory>
<runmodel>RUN_AS_THREAD_IN_TM</runmodel>
</task-req>
<param type="String">matrix.txt</param>
</task>
</job>
</client>
</cn2>"""


def small_doc(**client_kwargs) -> CnxDocument:
    return CnxDocument(
        CnxClient(
            "C",
            **client_kwargs,
            jobs=[
                CnxJob(
                    tasks=[
                        CnxTask("a", "a.jar", "A"),
                        CnxTask("b", "b.jar", "B", depends=["a"]),
                    ]
                )
            ],
        )
    )


class TestParser:
    def test_parses_fig2(self):
        doc = parse(FIG2)
        assert doc.client.cls == "TransClosure"
        assert doc.client.port == 5666
        assert doc.client.log == "CN_Client1047909210005.log"
        job = doc.client.jobs[0]
        assert job.task_names() == ["tctask0", "tctask1", "tctask999"]
        assert job.find("tctask1").depends == ["tctask0"]
        assert job.find("tctask1").params[0].python_value() == 1
        assert job.find("tctask999").task_req.memory == 1000

    def test_param_order_tolerant(self):
        # Fig. 2 has param before task-req for workers, after for others
        doc = parse(FIG2)
        assert doc.client.jobs[0].find("tctask1").task_req.runmodel == "RUN_AS_THREAD_IN_TM"

    def test_rejects_bad_xml(self):
        with pytest.raises(CnxParseError, match="well-formed"):
            parse("<cn2><client")

    def test_rejects_wrong_root(self):
        with pytest.raises(CnxParseError, match="cn2"):
            parse("<cn3/>")

    def test_rejects_missing_client(self):
        with pytest.raises(CnxParseError):
            parse("<cn2/>")

    def test_rejects_task_without_name(self):
        with pytest.raises(CnxParseError, match="name"):
            parse('<cn2><client class="C"><job><task jar="x" class="X"/></job></client></cn2>')

    def test_rejects_task_without_jar(self):
        with pytest.raises(CnxParseError, match="jar"):
            parse('<cn2><client class="C"><job><task name="t" class="X"/></job></client></cn2>')

    def test_rejects_empty_job(self):
        with pytest.raises(CnxParseError, match="no <task>"):
            parse('<cn2><client class="C"><job/></client></cn2>')

    def test_rejects_bad_port(self):
        with pytest.raises(CnxParseError, match="port"):
            parse('<cn2><client class="C" port="nan"><job><task name="t" jar="j" class="X"/></job></client></cn2>')

    def test_rejects_bad_memory(self):
        bad = (
            '<cn2><client class="C"><job><task name="t" jar="j" class="X">'
            "<task-req><memory>lots</memory></task-req></task></job></client></cn2>"
        )
        with pytest.raises(CnxParseError, match="memory"):
            parse(bad)

    def test_depends_whitespace_tolerant(self):
        doc = parse(
            '<cn2><client class="C"><job>'
            '<task name="a" jar="j" class="X"/>'
            '<task name="b" jar="j" class="X"/>'
            '<task name="t" jar="j" class="X" depends=" a , b "/>'
            "</job></client></cn2>"
        )
        assert doc.client.jobs[0].find("t").depends == ["a", "b"]

    def test_dynamic_attributes(self):
        doc = parse(
            '<cn2><client class="C"><job>'
            '<task name="w" jar="j" class="X" dynamic="true" multiplicity="1..*" '
            'arguments="[(i,) for i in range(n)]"/>'
            "</job></client></cn2>"
        )
        task = doc.client.jobs[0].find("w")
        assert task.dynamic and task.multiplicity == "1..*"


class TestEmitter:
    def test_roundtrip_canonical(self):
        doc = parse(FIG2)
        assert xml_equal(emit(doc), FIG2) is False  # param order normalized
        # but a reparse is structurally identical
        doc2 = parse(emit(doc))
        assert [t.name for t in doc2.client.jobs[0].tasks] == [
            t.name for t in doc.client.jobs[0].tasks
        ]
        for t1, t2 in zip(doc.client.jobs[0].tasks, doc2.client.jobs[0].tasks):
            assert t1 == t2

    def test_emit_contains_fig2_vocabulary(self):
        out = emit(small_doc(log="x.log"))
        for token in ("<cn2>", "<client", "<job>", "<task ", "<task-req>", "<memory>", "<runmodel>"):
            assert token in out

    def test_emit_dynamic(self):
        doc = CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(
                        tasks=[
                            CnxTask(
                                "w", "j.jar", "X",
                                dynamic=True, multiplicity="0..*", arguments="range(2)",
                            )
                        ]
                    )
                ],
            )
        )
        out = emit(doc)
        assert 'dynamic="true"' in out and 'multiplicity="0..*"' in out


class TestSchema:
    def test_python_value_coercions(self):
        assert CnxParam("Integer", "5").python_value() == 5
        assert CnxParam("java.lang.Integer", "5").python_value() == 5
        assert CnxParam("Double", "2.5").python_value() == 2.5
        assert CnxParam("Boolean", "True").python_value() is True
        assert CnxParam("Boolean", "false").python_value() is False
        assert CnxParam("String", "5").python_value() == "5"

    def test_topological(self):
        job = parse(FIG2).client.jobs[0]
        order = dag.order({t.name: t.depends for t in job.tasks})
        assert order.index("tctask0") < order.index("tctask1") < order.index("tctask999")

    def test_topological_cycle(self):
        job = CnxJob(
            tasks=[
                CnxTask("a", "j", "A", depends=["b"]),
                CnxTask("b", "j", "B", depends=["a"]),
            ]
        )
        with pytest.raises(ValueError, match="cycle"):
            dag.order({t.name: t.depends for t in job.tasks})

    def test_roots_and_dependents(self):
        job = parse(FIG2).client.jobs[0]
        assert [t.name for t in job.roots()] == ["tctask0"]
        assert [t.name for t in job.dependents_of("tctask0")] == ["tctask1"]


def error_codes(doc):
    return [d.code for d in analyze_cnx(doc).errors()]


class TestValidator:
    def test_valid_passes(self):
        validate(small_doc())

    def test_duplicate_names(self):
        doc = small_doc()
        doc.client.jobs[0].tasks.append(CnxTask("a", "x.jar", "X"))
        assert "CN101" in error_codes(doc)

    def test_unknown_dependency(self):
        doc = small_doc()
        doc.client.jobs[0].tasks[1].depends = ["ghost"]
        assert "CN102" in error_codes(doc)

    def test_self_dependency_fig2_erratum(self):
        # the exact bug in the paper's Fig. 2 listing
        doc = small_doc()
        doc.client.jobs[0].tasks[1].depends = ["b"]
        assert "CN103" in error_codes(doc)

    def test_bad_memory(self):
        doc = small_doc()
        doc.client.jobs[0].tasks[0].task_req = CnxTaskReq(memory=0)
        assert error_codes(doc) == ["CN203"]

    def test_unknown_runmodel(self):
        doc = small_doc()
        doc.client.jobs[0].tasks[0].task_req = CnxTaskReq(runmodel="NOPE")
        assert error_codes(doc) == ["CN204"]

    def test_dynamic_without_multiplicity(self):
        doc = small_doc()
        doc.client.jobs[0].tasks[0].dynamic = True
        assert error_codes(doc) == ["CN301"]

    def test_dynamic_attrs_without_flag(self):
        doc = small_doc()
        doc.client.jobs[0].tasks[0].arguments = "range(2)"
        assert error_codes(doc) == ["CN302"]

    def test_port_range(self):
        doc = small_doc(port=99999)
        assert error_codes(doc) == ["CN207"]

    def test_cycle_detected(self):
        doc = small_doc()
        doc.client.jobs[0].tasks[0].depends = ["b"]
        assert error_codes(doc) == ["CN104"]

    def test_validate_raises_with_all_problems(self):
        doc = small_doc(port=0)
        doc.client.jobs[0].tasks[0].task_req = CnxTaskReq(memory=-1)
        with pytest.raises(CnxValidationError) as excinfo:
            validate(doc)
        assert [d.code for d in excinfo.value.diagnostics] == ["CN207", "CN203"]
        assert excinfo.value.report.errors() == excinfo.value.diagnostics
