"""JobGraph IR extraction: all three representations converge."""

from pathlib import Path

import pytest

from repro.analysis import from_cnx, from_graph, from_model, from_xmi
from repro.apps.montecarlo import build_pi_model
from repro.core.cnx import parse
from repro.core.transform.xmi2cnx import graph_to_cnx
from repro.core.uml.model import Model
from repro.core.xmi import write_graph
from repro.util import dag

DATA = Path(__file__).parent.parent / "data"


def ir_signature(comp):
    return [
        {
            t.name: (t.jar, t.cls, tuple(sorted(t.depends)), t.memory, t.runmodel)
            for t in job.tasks
        }
        for job in comp.jobs
    ]


class TestExtraction:
    def test_three_paths_agree(self):
        graph = build_pi_model(n_workers=3)
        from_model_path = from_graph(graph)
        from_xmi_path = from_xmi(write_graph(graph))
        from_cnx_path = from_cnx(graph_to_cnx(graph))
        assert (
            ir_signature(from_model_path)
            == ir_signature(from_xmi_path)
            == ir_signature(from_cnx_path)
        )

    def test_cnx_locations_point_into_document(self):
        doc = parse((DATA / "fig2_descriptor.cnx").read_text())
        comp = from_cnx(doc)
        task = comp.jobs[0].find("tctask1")
        assert task.location.source == "cnx"
        assert "job[1]" in task.location.path
        assert "tctask1" in task.location.path

    def test_model_locations_name_the_action_state(self):
        comp = from_graph(build_pi_model(n_workers=2))
        task = comp.jobs[0].find("pisplit")
        assert task.location.source == "model"
        assert "UML:ActionState" in task.location.path

    def test_job_order_carried_from_model(self):
        model = Model("Workflow")
        pkg = model.new_package("client")
        from repro.core.uml import ActivityBuilder

        for name in ("prepare", "report"):
            b = ActivityBuilder(name)
            t = b.task(f"{name}-work", jar="s.jar", cls="demo.Stage")
            b.chain(b.initial(), t, b.final())
            pkg.add_graph(b.build())
        pkg.order_jobs("prepare", "report")
        comp = from_model(model)
        by_name = {j.name: j for j in comp.jobs}
        assert by_name["report"].after == ["prepare"]
        assert by_name["prepare"].after == []


class TestJobGraphQueries:
    def test_dependents_and_topological_order(self):
        comp = from_graph(build_pi_model(n_workers=2))
        job = comp.jobs[0]
        dependents = job.dependents()
        assert sorted(dependents["pisplit"]) == ["piworker1", "piworker2"]
        order = dag.order({t.name: t.depends for t in job.tasks})
        assert order.index("pisplit") < order.index("piworker1") < order.index(
            "pijoin"
        )

    def test_cycle_member_on_cyclic_graph(self):
        doc = parse((DATA / "defects" / "cycle.cnx").read_text())
        job = from_cnx(doc).jobs[0]
        with pytest.raises(dag.CycleError):
            dag.order({t.name: t.depends for t in job.tasks})
        assert job.cycle_member() in {"a", "b", "c"}

    def test_memory_parsing_tolerates_garbage(self):
        from repro.analysis import TaskNode

        assert TaskNode("t", memory_raw="1500").memory == 1500
        assert TaskNode("t", memory_raw="lots").memory is None
        assert TaskNode("t", retries_raw="-1").retries == -1
        assert TaskNode("t", retries_raw="NaN").retries is None
