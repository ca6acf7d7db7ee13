"""The one dependency-graph walker, and the deep chains that used to
overflow the stack in the recursive walkers it replaced."""

import pytest

from repro.analysis import Composition, JobGraph, TaskNode, analyze, analyze_cnx
from repro.core.cnx import CnxClient, CnxDocument, CnxJob, CnxTask
from repro.core.uml import ActivityBuilder, ActivityGraph, GraphValidationError
from repro.util import dag

DEEP = 5000


class TestWalker:
    def test_order_puts_prerequisites_first(self):
        order = dag.order({"join": ["w1", "w2"], "w1": ["split"], "w2": ["split"]})
        assert order.index("split") < order.index("w1") < order.index("join")
        assert sorted(order) == ["join", "split", "w1", "w2"]

    def test_order_refuses_a_cycle(self):
        with pytest.raises(dag.CycleError):
            dag.order({"a": ["b"], "b": ["a"]})

    def test_batches_are_the_concurrent_layers(self):
        layers, stuck = dag.batches({"a": [], "b": [], "c": ["a"], "d": ["c", "b"]})
        assert [sorted(layer) for layer in layers] == [["a", "b"], ["c"], ["d"]]
        assert stuck == []

    def test_batches_name_what_a_cycle_blocks(self):
        layers, stuck = dag.batches(
            {"free": [], "a": ["b"], "b": ["a"], "behind": ["a", "free"]}
        )
        assert layers == [["free"]]
        assert stuck == ["a", "b", "behind"]

    def test_cycle_witness_is_deterministic_and_closed(self):
        edges = {"a": ["c"], "b": ["a"], "c": ["b"], "d": []}
        assert dag.cycle(edges) == ["a", "c", "b", "a"]
        assert dag.cycle({"a": ["b"], "b": []}) == []
        assert dag.cycle({"a": ["a"]}) == ["a", "a"]

    def test_descendants_is_the_transitive_closure(self):
        reach = dag.descendants({"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []})
        assert reach == {"a": {"b", "c", "d"}, "b": {"d"}, "c": {"d"}, "d": set()}

    def test_descendants_leaves_out_what_reaches_a_cycle(self):
        reach = dag.descendants({"up": ["a"], "a": ["b"], "b": ["a", "out"], "out": []})
        assert reach == {"out": set()}


def chain_graph(n: int) -> ActivityBuilder:
    b = ActivityBuilder("Chain")
    tasks = [b.task(f"t{i}", jar="x.jar", cls="X") for i in range(n)]
    b.chain(b.initial(), *tasks, b.final())
    return b


def chain_doc(n: int) -> CnxDocument:
    tasks = [
        CnxTask(f"t{i}", "x.jar", "X", depends=[f"t{i - 1}"] if i else [])
        for i in range(n)
    ]
    return CnxDocument(CnxClient("Chain", jobs=[CnxJob(tasks=tasks)]))


class TestDeepChains:
    """A valid 1 500-task chain died with RecursionError in
    ``ActivityBuilder.build()``; nothing on the path recurses now."""

    def test_builder_validates_a_deep_chain(self):
        graph = chain_graph(DEEP).build()
        order = [action.name for action in graph.topological_actions()]
        assert order == [f"t{i}" for i in range(DEEP)]

    def test_analyzer_accepts_a_deep_chain(self):
        report = analyze_cnx(chain_doc(DEEP))
        assert report.ok, report.summary()

    def test_deep_chain_with_a_back_edge_is_still_a_cycle(self):
        doc = chain_doc(DEEP)
        doc.jobs[0].tasks[0].depends = [f"t{DEEP - 1}"]
        (finding,) = analyze_cnx(doc).by_code("CN104")
        assert finding.message == "job[0]: dependency cycle through task 't0'"

    def test_walker_calls_on_a_deep_chain(self):
        deps = {i: [i - 1] if i else [] for i in range(DEEP)}
        assert dag.order(deps) == list(range(DEEP))
        layers, stuck = dag.batches(deps)
        assert layers == [[i] for i in range(DEEP)] and stuck == []
        assert dag.cycle(deps) == []
        deps[0] = [DEEP - 1]
        assert len(dag.cycle(deps)) == DEEP + 1
        job = JobGraph(tasks=[TaskNode(str(i), depends=[str(i - 1)]) for i in range(1, DEEP)])
        assert job.cycle_member() is None

    def test_message_flow_over_a_long_chain(self):
        # CN505 needs the transitive closure; 1 000 links were already
        # past the recursive one's reach
        doc = chain_doc(1000)
        doc.jobs[0].tasks[3].receives = ["t900"]
        doc.jobs[0].tasks[900].sends = ["t3"]
        (finding,) = analyze_cnx(doc).by_code("CN505")
        assert "task 't3' waits for a message from 't900'" in finding.message


class TestCycleDiagnosticsUnchanged:
    def three_cycle(self) -> JobGraph:
        return JobGraph(
            tasks=[
                TaskNode("a", "x.jar", "X", depends=["c"]),
                TaskNode("b", "x.jar", "X", depends=["a"]),
                TaskNode("c", "x.jar", "X", depends=["b"]),
            ]
        )

    def test_task_cycle_is_cn104_naming_a_member(self):
        report = analyze(Composition(client_cls="C", jobs=[self.three_cycle()]))
        (finding,) = report.by_code("CN104")
        assert finding.message == "job[0]: dependency cycle through task 'a'"

    def test_graph_cycle_names_a_task_on_it(self):
        g = ActivityGraph("G")
        initial, final = g.add_initial(), g.add_final()
        a, b, c = (g.add_action(n) for n in "abc")
        for source, target in ((initial, a), (a, b), (b, c), (c, a), (c, final)):
            g.add_transition(source, target)
        from repro.core.uml.validate import validate_graph

        with pytest.raises(GraphValidationError) as refused:
            validate_graph(g)
        assert "dependency cycle through 'a'" in refused.value.problems

    def test_pseudostate_only_cycle_is_still_found(self):
        g = ActivityGraph("G")
        initial, final = g.add_initial(), g.add_final()
        task = g.add_action("t")
        fork, join = g.add_fork("f"), g.add_join("j")
        for source, target in (
            (initial, task), (task, fork), (fork, join), (join, fork), (fork, final),
        ):
            g.add_transition(source, target)
        from repro.core.uml.validate import collect_problems

        assert "transition graph contains a cycle" in collect_problems(g)

    def test_cyclic_job_order_is_cn704_with_the_same_message(self):
        jobs = [
            JobGraph(tasks=[TaskNode("t", "x.jar", "X")], name=name, after=after, index=i)
            for i, (name, after) in enumerate(
                [("first", []), ("b", ["a", "first"]), ("a", ["b"]), ("late", ["a"])]
            )
        ]
        (finding,) = analyze(Composition(client_cls="C", jobs=jobs)).by_code("CN704")
        assert finding.message == "cyclic job ordering among ['a', 'b', 'late']"

    def test_cn505_is_claimed_only_where_the_order_is_acyclic(self):
        job = self.three_cycle()
        job.tasks.append(TaskNode("tail", "x.jar", "X", depends=["c"], sends=["a"]))
        job.tasks[0].receives = ["tail"]
        report = analyze(Composition(client_cls="C", jobs=[job]))
        assert report.by_code("CN104") and not report.by_code("CN505")
        job.tasks[0].depends = []  # break the cycle: the ordering claim is back
        report = analyze(Composition(client_cls="C", jobs=[job]))
        assert not report.by_code("CN104") and report.by_code("CN505")
