"""Analyzer wired into the pipeline: refusal against the cluster, portal
rejection, and warning passthrough."""

import json
import re
from pathlib import Path

import pytest

from repro.apps.montecarlo import build_pi_model, register_pi_tasks
from repro.cn import Cluster
from repro.cn.config import SCHEDULERS
from repro.cn.portal import Portal
from repro.cn.registry import TaskRegistry
from repro.core.cnx.validate import CnxValidationError
from repro.core.transform import Pipeline
from repro.core.transform.cli import main as cli_main
from repro.core.uml import ActivityBuilder, Model
from repro.core.xmi import write_graph
from repro.core.xmi.reader import read_model
from repro.core.xmi.writer import write_model

from ..conftest import Echo, basic_registry
from ..uml.test_activity import DEFECTIVE
from ..util.test_dag import pseudostate_cycle, task_cycle

DATA = Path(__file__).parent.parent / "data"
DEFECTS = DATA / "defects"


@pytest.fixture(scope="module")
def cluster():
    with Cluster(3, registry=register_pi_tasks(TaskRegistry())) as c:
        yield c


class TestDiagramToDescriptor:
    def test_unreceived_send_is_reported_on_the_pipelines_descriptor(self):
        """The Fig. 6 path keeps the declared message flows, so the
        protocol pass sees them: `a` sends to `b`, `b` receives only from
        `c`."""
        from repro.analysis import analyze_cnx

        b = ActivityBuilder("Flow")
        a = b.task("a", jar="e.jar", cls="t.A", sends=["b"])
        c = b.task("c", jar="e.jar", cls="t.C", sends=["b"])
        receiver = b.task("b", jar="e.jar", cls="t.B", receives=["c"])
        b.chain(b.initial(), a, c, receiver, b.final())
        doc = Pipeline().to_cnx(write_graph(b.build()))
        [finding] = analyze_cnx(doc).diagnostics
        assert finding.code == "CN501"
        assert "'a' to 'b'" in finding.message


def one_graph(graph) -> Model:
    model = Model("M")
    model.new_package("p").add_graph(graph)
    return model


class TestOneDefectOneDiagnostic:
    """A tagged value that breaks the CN profile is reported once, under
    its own code; CN001 is what only the diagram can say."""

    @staticmethod
    def model_with(spoil):
        b = ActivityBuilder("G")
        a = b.task("a", jar="x.jar", cls="X")
        b.chain(b.initial(), a, b.final())
        spoil(b, a)
        return one_graph(b.graph)

    #: code -> how to seed the one defect that earns it
    DEFECTS = {
        "CN201": lambda b, a: a.set_tag("jar", ""),
        "CN202": lambda b, a: a.set_tag("class", ""),
        "CN203": lambda b, a: a.set_tag("memory", "lots"),
        "CN204": lambda b, a: a.set_tag("runmodel", "FAST"),
        "CN205": lambda b, a: a.set_tag("retries", "-1"),
        "CN210": lambda b, a: a.set_tag("ptype0", "Integer"),
        "CN301": lambda b, a: (
            setattr(a, "is_dynamic", True), setattr(a, "dynamic_multiplicity", "")
        ),
    }

    @pytest.mark.parametrize("code", sorted(DEFECTS))
    def test_each_tag_defect_is_one_error_under_its_own_code(self, code):
        from repro.analysis import analyze_model

        report = analyze_model(self.model_with(self.DEFECTS[code]))
        assert [d.code for d in report.errors()] == [code]

    def test_three_defects_three_diagnostics(self):
        from repro.analysis import analyze_model

        def spoil(b, a):
            a.set_tag("jar", "")
            a.set_tag("memory", "lots")
            a.set_tag("runmodel", "FAST")

        report = analyze_model(self.model_with(spoil))
        assert sorted(d.code for d in report.errors()) == ["CN201", "CN203", "CN204"]

    #: name -> how to seed a defect only the diagram can say
    DIAGRAM_DEFECTS = {
        "unreachable-vertex": lambda b, a: b.task("stray", jar="x.jar", cls="X"),
        "fork-with-one-outgoing-edge": (
            lambda b, a: b.graph.add_transition(b.fork("f"), a)
        ),
    }

    @pytest.mark.parametrize("defect", list(DIAGRAM_DEFECTS))
    def test_cn001_is_for_the_diagram(self, defect):
        from repro.analysis import analyze_model

        spoil = self.DIAGRAM_DEFECTS[defect]
        assert "CN001" in analyze_model(self.model_with(spoil)).codes()


def _spoiled(spoil):
    return lambda: write_model(TestOneDefectOneDiagnostic.model_with(spoil))


def _graph(build):
    return lambda: write_model(one_graph(build()))


#: name -> the XMI text of every defective input the suite builds: the
#: seeded defect file, the one-defect models above, and the defective
#: graphs of tests/uml/test_activity.py and tests/util/test_dag.py.  CN301's
#: model is not among them: the XMI reader gives a dynamic task without a
#: multiplicity the profile's default, so its XMI text has no defect.
REFUSED = {
    "missing_class.xmi": (DEFECTS / "missing_class.xmi").read_text,
    **{
        f"tag-{code}": _spoiled(spoil)
        for code, spoil in TestOneDefectOneDiagnostic.DEFECTS.items()
        if code != "CN301"
    },
    **{
        f"diagram-{name}": _spoiled(spoil)
        for name, spoil in TestOneDefectOneDiagnostic.DIAGRAM_DEFECTS.items()
    },
    **{f"graph-{name}": _graph(build) for name, build in DEFECTIVE.items()},
    "graph-task-cycle": _graph(task_cycle),
    "graph-pseudostate-cycle": _graph(pseudostate_cycle),
}


class TestSameRefusalAtEveryEntry:
    """A composition is checked once, by cnlint, where it enters the
    Fig. 6 path -- so ``Pipeline.run``, ``Portal.submit`` and
    ``cn-pipeline`` refuse each input with the same codes."""

    @pytest.fixture(scope="class")
    def portal(self):
        registry = TaskRegistry()  # every archive the inputs name resolves
        registry.register_class("x.jar", "X", Echo)
        registry.register_class("t.jar", "pkg.Split", Echo)
        portal = Portal(Cluster(3, registry=registry))
        yield portal
        portal.cluster.shutdown()

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_pipeline_portal_and_cli_refuse_alike(self, name, portal, tmp_path, capsys):
        xmi = REFUSED[name]()
        with pytest.raises(CnxValidationError) as refused:
            Pipeline().run(read_model(xmi))
        by_pipeline = [d.code for d in refused.value.report]

        submission = portal.submit(xmi)
        assert submission.status == "rejected" and submission.cnx_text == ""
        by_portal = [d["code"] for d in submission.diagnostics]

        path = tmp_path / "model.xmi"
        path.write_text(xmi)
        capsys.readouterr()
        assert cli_main(["cnx", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        by_cli = re.findall(r"^  (CN\d{3}) ", captured.err, re.MULTILINE)

        assert by_pipeline and by_pipeline == by_portal == by_cli


class TestOneCheckPerEntry:
    """Every ``analyze_*`` call goes through ``passes.analyze``: each
    entry into the path runs it exactly once, on the model, accepted or
    refused."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        from repro.analysis import passes

        runs = []
        analyze = passes.analyze

        def counted(comp, *args, **kwargs):
            runs.append(comp.source)
            return analyze(comp, *args, **kwargs)

        monkeypatch.setattr(passes, "analyze", counted)
        return runs

    @staticmethod
    def pi_graph():
        return build_pi_model(samples=2000, seed=1, n_workers=2)

    def test_building_a_model_checks_nothing(self, analyses):
        self.pi_graph()
        assert analyses == []

    def test_pipeline_run(self, analyses, cluster):
        graph = self.pi_graph()
        for run in (
            lambda: Pipeline().run(graph, cluster),
            lambda: Pipeline().run(graph, registry=register_pi_tasks(TaskRegistry())),
            lambda: Pipeline().run(graph, execute=False),
            lambda: Pipeline().run(graph, cluster, execute=False),
        ):
            analyses.clear()
            run()
            assert analyses == ["model"]

    def test_portal_submit_accepted_or_rejected(self, analyses):
        portal = Portal(Cluster(2, registry=register_pi_tasks(TaskRegistry())))
        try:
            for xmi, status in (
                (write_graph(self.pi_graph()), "done"),
                ((DEFECTS / "missing_class.xmi").read_text(), "rejected"),
            ):
                analyses.clear()
                assert portal.submit(xmi).status == status
                assert analyses == ["model"]
        finally:
            portal.cluster.shutdown()

    @pytest.mark.parametrize("command", ["cnx", "python", "java", "run"])
    def test_each_cli_command(self, command, analyses, tmp_path):
        path = tmp_path / "pi.xmi"
        path.write_text(write_graph(self.pi_graph()))
        analyses.clear()
        assert cli_main([command, str(path)]) == 0
        assert analyses == ["model"]


class TestCheckAgainstTheCluster:
    """Given a cluster, step 1 checks the model against its shape and its
    task registry too."""

    def test_unregistered_archive_refused(self, cluster):
        b = ActivityBuilder("G")
        a = b.task("a", jar="t.jar", cls="pkg.Missing")
        b.chain(b.initial(), a, b.final())
        with pytest.raises(CnxValidationError) as refused:
            Pipeline().run(b.build(), cluster)
        assert [d.code for d in refused.value.report] == ["CN801"]
        assert "'pkg.Missing'" in str(refused.value)

    def test_clean_run_collects_warnings(self):
        graph = build_pi_model(samples=2000, seed=3, n_workers=2)
        for scheduler in SCHEDULERS:
            registry = register_pi_tasks(TaskRegistry())
            with Cluster(3, registry=registry, scheduler=scheduler) as cluster:
                result = Pipeline().run(graph, cluster)
            assert result.report.ok and result.report.warnings() == []
            assert result.results["pijoin"]["samples"] == 2000


class TestPortalRejection:
    @pytest.fixture(scope="class")
    def portal(self):
        portal = Portal(
            Cluster(3, registry=register_pi_tasks(TaskRegistry()),
                    memory_per_node=64000),
        )
        yield portal
        portal.close()
        portal.cluster.shutdown()

    def test_defective_model_rejected_before_pipeline(self, portal):
        submission = portal.submit((DEFECTS / "missing_class.xmi").read_text())
        assert submission.status == "rejected"
        assert submission.cnx_text == ""  # pipeline never ran
        codes = {d["code"] for d in submission.diagnostics}
        assert "CN202" in codes
        assert "CN001" not in codes  # a tag defect is reported once, under its own code
        assert "static analysis" in submission.error

    def test_rejection_diagnostics_downloadable(self, portal):
        submission = portal.submit((DEFECTS / "missing_class.xmi").read_text())
        artifact = submission.artifacts()["diagnostics"]
        findings = json.loads(artifact)
        assert any(f["code"] == "CN202" for f in findings)
        assert all(
            {"code", "severity", "message", "location", "hint"} <= set(f)
            for f in findings
        )

    def test_clean_submission_still_done(self, portal):
        submission = portal.submit(
            write_graph(build_pi_model(samples=2000, seed=1, n_workers=2))
        )
        assert submission.status == "done"
        assert submission.diagnostics == []

    def test_a_failed_run_keeps_its_warnings(self):
        # partial join: w3 bypasses the barrier -> CN401; the splitter raises
        b = ActivityBuilder("Warned")
        split = b.task("split", jar="boom.jar", cls="test.Boom")
        workers = [b.task(f"w{i}", jar="echo.jar", cls="test.Echo") for i in (1, 2, 3)]
        fork, barrier, final = b.fork(), b.join(), b.final()
        b.chain(b.initial(), split, fork)
        for worker in workers:
            b.graph.add_transition(fork, worker)
        for worker in workers[:2]:
            b.graph.add_transition(worker, barrier)
        b.chain(barrier, b.task("join", jar="echo.jar", cls="test.Echo"), final)
        b.graph.add_transition(workers[2], final)
        portal = Portal(Cluster(2, registry=basic_registry()), timeout=30)
        try:
            submission = portal.submit(write_graph(b.build()))
        finally:
            portal.cluster.shutdown()
        assert submission.status == "failed"
        assert [d["code"] for d in submission.diagnostics] == ["CN401"]

    def test_an_argument_expression_outside_the_grammar_is_refused(self, portal):
        from repro.apps.montecarlo.driver import WORKER_CLASS, WORKER_JAR

        # at the parent this reached ``os`` on the host running the client
        escape = (
            "[c for c in ().__class__.__base__.__subclasses__() "
            "if c.__name__ == 'catch_warnings'][0]()._module"
            ".__builtins__['__import__']('os').sep"
        )
        b = ActivityBuilder("Escape")
        worker = b.dynamic_task(
            "w", jar=WORKER_JAR, cls=WORKER_CLASS, argument_expr=escape
        )
        b.chain(b.initial(), worker, b.final())
        submission = portal.submit(write_graph(b.build()))
        assert submission.status == "rejected"
        assert [d["code"] for d in submission.diagnostics] == ["CN305"]

    def test_http_rejection_is_422(self, portal):
        import urllib.error
        import urllib.request

        from repro.cn.portal import PortalHTTPServer

        server = PortalHTTPServer(portal).start()
        try:
            host, port = server.address
            request = urllib.request.Request(
                f"http://{host}:{port}/submit",
                data=(DEFECTS / "missing_class.xmi").read_text().encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 422
            payload = json.loads(excinfo.value.read())
            assert payload["status"] == "rejected"
            assert any(f["code"] == "CN202" for f in payload["findings"])
        finally:
            server.stop()
