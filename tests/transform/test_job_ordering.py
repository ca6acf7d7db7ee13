"""Client-level job partial order (paper section 4): through UML
packages, XMI dependencies, both transforms, CNX, and the runner."""

import threading
import time

from repro.analysis import analyze_cnx
from repro.cn import ClientRunner, Cluster, Task, TaskRegistry
from repro.core.cnx import CnxClient, CnxDocument, CnxJob, CnxTask, emit, parse
from repro.core.transform.xmi2cnx import model_to_cnx, xmi_to_cnx, xmi_to_cnx_native
from repro.core.uml import ActivityBuilder, Model
from repro.core.xmi import read_model, write_model


def one_task_graph(name: str, task_prefix: str):
    b = ActivityBuilder(name)
    t = b.task(f"{task_prefix}-task", jar="stamp.jar", cls="t.Stamp")
    b.chain(b.initial(), t, b.final())
    return b.build()


def ordered_model():
    """Three jobs: prepare -> (analyzeA | analyzeB may overlap) -> report;
    we express prepare < analyzeA, prepare < analyzeB, analyzeA < report,
    analyzeB < report."""
    model = Model("M")
    pkg = model.new_package("client")
    for name in ("prepare", "analyzeA", "analyzeB", "report"):
        pkg.add_graph(one_task_graph(name, name))
    pkg.order_jobs("prepare", "analyzeA")
    pkg.order_jobs("prepare", "analyzeB")
    pkg.order_jobs("analyzeA", "report")
    pkg.order_jobs("analyzeB", "report")
    return model


class TestThroughXmi:
    def test_dependencies_roundtrip(self):
        model = ordered_model()
        restored = read_model(write_model(model))
        assert sorted(restored.packages[0].job_order) == sorted(
            model.packages[0].job_order
        )

    def test_dependency_vocabulary(self):
        xmi = write_model(ordered_model())
        assert "<UML:Dependency" in xmi
        assert "<UML:Dependency.client>" in xmi
        assert "<UML:Dependency.supplier>" in xmi


class TestThroughTransforms:
    def expected(self):
        return {
            "prepare": [],
            "analyzeA": ["prepare"],
            "analyzeB": ["prepare"],
            "report": ["analyzeA", "analyzeB"],
        }

    def test_native_transform(self):
        doc = model_to_cnx(ordered_model())
        got = {j.name: sorted(j.after) for j in doc.client.jobs}
        assert got == self.expected()

    def test_xslt_transform(self):
        doc = xmi_to_cnx(write_model(ordered_model()))
        got = {j.name: sorted(j.after) for j in doc.client.jobs}
        assert got == self.expected()

    def test_transforms_agree(self):
        xmi = write_model(ordered_model())
        a = {j.name: sorted(j.after) for j in xmi_to_cnx(xmi).client.jobs}
        b = {j.name: sorted(j.after) for j in xmi_to_cnx_native(xmi).client.jobs}
        assert a == b

    def test_unordered_jobs_stay_anonymous(self):
        model = Model("M")
        pkg = model.new_package("p")
        pkg.add_graph(one_task_graph("only", "only"))
        doc = model_to_cnx(model)
        assert doc.client.jobs[0].name == ""
        assert "name=" not in emit(doc).split("<job")[1].split(">")[0]


class TestCnxOrderingValidation:
    def doc(self, jobs):
        return CnxDocument(CnxClient("C", jobs=jobs))

    def job(self, name="", after=()):
        return CnxJob(
            name=name, after=list(after), tasks=[CnxTask(f"t-{name or 'x'}", "j.jar", "T")]
        )

    def test_emit_parse_roundtrip(self):
        doc = self.doc([self.job("a"), self.job("b", after=["a"])])
        reparsed = parse(emit(doc))
        assert reparsed.client.jobs[1].after == ["a"]

    def error_codes(self, jobs):
        return [d.code for d in analyze_cnx(self.doc(jobs)).errors()]

    def test_unknown_after(self):
        assert self.error_codes([self.job("a", after=["ghost"])]) == ["CN702"]

    def test_self_after(self):
        assert "CN703" in self.error_codes([self.job("a", after=["a"])])

    def test_unnamed_with_after(self):
        assert self.error_codes([self.job("a"), self.job("", after=["a"])]) == ["CN705"]

    def test_cycle(self):
        jobs = [self.job("a", after=["b"]), self.job("b", after=["a"])]
        assert self.error_codes(jobs) == ["CN704"]

    def test_duplicate_names(self):
        assert self.error_codes([self.job("a"), self.job("a")]) == ["CN701"]


class TestRunnerBatches:
    def test_order_respected_and_middle_batch_concurrent(self):
        events = []
        lock = threading.Lock()

        class Stamp(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                with lock:
                    events.append(("start", ctx.task_name))
                time.sleep(0.05)
                with lock:
                    events.append(("end", ctx.task_name))
                return ctx.task_name

        registry = TaskRegistry()
        registry.register_class("stamp.jar", "t.Stamp", Stamp)
        from repro.core.transform.pipeline import Pipeline

        with Cluster(4, registry=registry) as cluster:
            doc = model_to_cnx(ordered_model())
            outcome = ClientRunner(cluster).run(doc, timeout=30)
        assert len(outcome.job_results) == 4
        order = [name for kind, name in events if kind == "start"]
        assert order[0] == "prepare-task"
        assert order[-1] == "report-task"
        # the two analyze jobs overlap: both start before either ends
        idx = {(k, n): i for i, (k, n) in enumerate(events)}
        assert (
            idx[("start", "analyzeB-task")] < idx[("end", "analyzeA-task")]
            or idx[("start", "analyzeA-task")] < idx[("end", "analyzeB-task")]
        )

    def test_results_in_document_order(self):
        class Name(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                return ctx.task_name

        registry = TaskRegistry()
        registry.register_class("stamp.jar", "t.Stamp", Name)
        with Cluster(2, registry=registry) as cluster:
            doc = model_to_cnx(ordered_model())
            outcome = ClientRunner(cluster).run(doc, timeout=30)
        firsts = [next(iter(r.values())) for r in outcome.job_results]
        assert firsts == [
            "prepare-task", "analyzeA-task", "analyzeB-task", "report-task",
        ]

    def test_sequential_without_ordering_unchanged(self):
        class Name(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                return ctx.task_name

        registry = TaskRegistry()
        registry.register_class("j.jar", "t.T", Name)
        doc = CnxDocument(
            CnxClient(
                "C",
                jobs=[
                    CnxJob(tasks=[CnxTask("first", "j.jar", "t.T")]),
                    CnxJob(tasks=[CnxTask("second", "j.jar", "t.T")]),
                ],
            )
        )
        with Cluster(2, registry=registry) as cluster:
            outcome = ClientRunner(cluster).run(doc, timeout=30)
        assert [list(r) for r in outcome.job_results] == [["first"], ["second"]]


class TestPipelineEndToEnd:
    def test_full_pipeline_with_ordering(self):
        class Name(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                return ctx.task_name

        registry = TaskRegistry()
        registry.register_class("stamp.jar", "t.Stamp", Name)
        from repro.core.transform.pipeline import Pipeline

        with Cluster(4, registry=registry) as cluster:
            outcome = Pipeline().run(ordered_model(), cluster, timeout=60)
        assert len(outcome.job_results) == 4
        assert 'after="prepare"' in outcome.cnx_text
