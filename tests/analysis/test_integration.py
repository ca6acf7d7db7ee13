"""Analyzer wired into the pipeline: client runner refusal, portal
rejection, and warning passthrough."""

import json
from pathlib import Path

import pytest

from repro.cn import Cluster
from repro.cn.client import ClientRunner
from repro.cn.config import SCHEDULERS
from repro.cn.portal import Portal
from repro.cn.registry import TaskRegistry
from repro.core.cnx import parse
from repro.core.cnx.validate import CnxValidationError
from repro.core.xmi import write_graph

DATA = Path(__file__).parent.parent / "data"
DEFECTS = DATA / "defects"


@pytest.fixture(scope="module")
def cluster():
    from repro.apps.montecarlo import register_pi_tasks

    with Cluster(3, registry=register_pi_tasks(TaskRegistry())) as c:
        yield c


class TestDiagramToDescriptor:
    def test_unreceived_send_is_reported_on_the_pipelines_descriptor(self):
        """The Fig. 6 path keeps the declared message flows, so the
        protocol pass sees them: `a` sends to `b`, `b` receives only from
        `c`."""
        from repro.analysis import analyze_cnx
        from repro.core.transform import Pipeline
        from repro.core.uml import ActivityBuilder

        b = ActivityBuilder("Flow")
        a = b.task("a", jar="e.jar", cls="t.A", sends=["b"])
        c = b.task("c", jar="e.jar", cls="t.C", sends=["b"])
        receiver = b.task("b", jar="e.jar", cls="t.B", receives=["c"])
        b.chain(b.initial(), a, c, receiver, b.final())
        doc = Pipeline().to_cnx(write_graph(b.build()))
        [finding] = analyze_cnx(doc).diagnostics
        assert finding.code == "CN501"
        assert "'a' to 'b'" in finding.message


class TestOneDefectOneDiagnostic:
    """A tagged value that breaks the CN profile is reported once, under
    its own code; CN001 is what only the diagram can say."""

    @staticmethod
    def model_with(spoil):
        from repro.core.uml import ActivityBuilder, Model

        b = ActivityBuilder("G")
        a = b.task("a", jar="x.jar", cls="X")
        b.chain(b.initial(), a, b.final())
        spoil(b, a)
        model = Model("M")
        model.new_package("p").add_graph(b.graph)
        return model

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

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda b, a: b.task("stray", jar="x.jar", cls="X"),  # unreachable
            lambda b, a: b.graph.add_transition(b.fork("f"), a),  # one-way fork
        ],
        ids=["unreachable-vertex", "fork-with-one-outgoing-edge"],
    )
    def test_cn001_is_for_the_diagram(self, spoil):
        from repro.analysis import analyze_model

        assert "CN001" in analyze_model(self.model_with(spoil)).codes()


class TestClientRunnerRefusal:
    def test_defective_descriptor_refused_with_diagnostics(self, cluster):
        doc = parse((DEFECTS / "cycle.cnx").read_text())
        runner = ClientRunner(cluster)
        with pytest.raises(CnxValidationError) as excinfo:
            runner.run(doc)
        assert any("dependency cycle" in p for p in excinfo.value.problems)
        codes = {d.code for d in excinfo.value.diagnostics}
        assert "CN104" in codes
        # the cluster context also resolves archives: t.jar isn't registered
        assert "CN801" in codes

    def test_deadlocked_descriptor_never_reaches_cluster(self, cluster):
        doc = parse((DEFECTS / "deadlock.cnx").read_text())
        with pytest.raises(CnxValidationError) as excinfo:
            ClientRunner(cluster).run(doc)
        assert any(d.code == "CN504" for d in excinfo.value.diagnostics)

    def test_clean_run_collects_warnings(self):
        from repro.apps.montecarlo import build_pi_model, register_pi_tasks
        from repro.core.transform.xmi2cnx import graph_to_cnx

        doc = graph_to_cnx(build_pi_model(samples=2000, seed=3, n_workers=2))
        for scheduler in SCHEDULERS:  # the worker fan is one create_tasks call
            registry = register_pi_tasks(TaskRegistry())
            with Cluster(3, registry=registry, scheduler=scheduler) as cluster:
                result = ClientRunner(cluster).run(doc)
            assert result.warnings == []
            assert result.results["pijoin"]["samples"] == 2000

    def test_analyze_exposes_full_report(self, cluster):
        from repro.apps.montecarlo import build_pi_model
        from repro.core.transform.xmi2cnx import graph_to_cnx

        doc = graph_to_cnx(build_pi_model(n_workers=2))
        report = ClientRunner(cluster).analyze(doc)
        assert report.ok


class TestPortalRejection:
    @pytest.fixture(scope="class")
    def portal(self):
        from repro.apps.montecarlo import register_pi_tasks

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
        from repro.apps.montecarlo import build_pi_model

        submission = portal.submit(
            write_graph(build_pi_model(samples=2000, seed=1, n_workers=2))
        )
        assert submission.status == "done"
        assert submission.diagnostics == []

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
