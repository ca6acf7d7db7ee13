"""Activity-graph metamodel tests."""

import pytest

from repro.analysis import analyze_model
from repro.core.uml import ActivityBuilder, ActivityGraph, Model


def fig3_graph(n_workers=3):
    b = ActivityBuilder("G")
    split = b.task("split", jar="s.jar", cls="S")
    workers = [b.task(f"w{i}", jar="w.jar", cls="W") for i in range(1, n_workers + 1)]
    join = b.task("join", jar="j.jar", cls="J")
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    b.chain(join, b.final())
    return b.build()


class TestConstruction:
    def test_duplicate_vertex_rejected(self):
        g = ActivityGraph("G")
        g.add_action("x")
        with pytest.raises(ValueError, match="duplicate"):
            g.add_action("x")

    def test_transition_endpoints_must_belong(self):
        g1, g2 = ActivityGraph("A"), ActivityGraph("B")
        a = g1.add_action("a")
        b = g2.add_action("b")
        with pytest.raises(ValueError):
            g1.add_transition(a, b)

    def test_find(self):
        g = fig3_graph()
        assert g.find("split").name == "split"
        with pytest.raises(KeyError):
            g.find("ghost")

    def test_incoming_outgoing_kept_consistent(self):
        g = ActivityGraph("G")
        a, b = g.add_action("a"), g.add_action("b")
        t = g.add_transition(a, b)
        assert a.outgoing == [t] and b.incoming == [t]
        assert a.successors() == [b] and b.predecessors() == [a]


class TestDependencies:
    def test_fig3_dependency_relation(self):
        g = fig3_graph(3)
        deps = g.action_dependencies()
        assert deps["split"] == []
        assert deps["w1"] == ["split"]
        assert deps["join"] == ["w1", "w2", "w3"]

    def test_pseudostates_transparent_in_chain(self):
        b = ActivityBuilder("G")
        a = b.task("a", jar="x.jar", cls="X")
        c = b.task("c", jar="x.jar", cls="X")
        b.chain(b.initial(), a, c, b.final())
        deps = b.build().action_dependencies()
        assert deps == {"a": [], "c": ["a"]}

    def test_nested_forks(self):
        # a -> fork -> (b, fork2 -> (c, d) -> join2 -> e) -> join -> f
        g = ActivityGraph("G")
        init = g.add_initial()
        a, bb, c, d, e, f = (g.add_action(x) for x in "abcdef")
        fork, fork2 = g.add_fork("f1"), g.add_fork("f2")
        join, join2 = g.add_join("j1"), g.add_join("j2")
        final = g.add_final()
        g.add_transition(init, a)
        g.add_transition(a, fork)
        g.add_transition(fork, bb)
        g.add_transition(fork, fork2)
        g.add_transition(fork2, c)
        g.add_transition(fork2, d)
        g.add_transition(c, join2)
        g.add_transition(d, join2)
        g.add_transition(join2, e)
        g.add_transition(bb, join)
        g.add_transition(e, join)
        g.add_transition(join, f)
        g.add_transition(f, final)
        deps = g.action_dependencies()
        assert deps["c"] == ["a"] and deps["d"] == ["a"]
        assert deps["e"] == ["c", "d"]
        assert deps["f"] == ["b", "e"]

    def test_topological_order_respects_deps(self):
        g = fig3_graph(4)
        order = [a.name for a in g.topological_actions()]
        assert order.index("split") < order.index("w1")
        assert order.index("w4") < order.index("join")

    def test_cycle_detection(self):
        g = ActivityGraph("G")
        a, b = g.add_action("a"), g.add_action("b")
        g.add_transition(a, b)
        g.add_transition(b, a)
        with pytest.raises(ValueError, match="cycle"):
            g.topological_actions()


def missing_initial():
    g = ActivityGraph("G")
    a = g.add_action("a")
    a.set_tag("jar", "x.jar")
    a.set_tag("class", "X")
    g.add_final()
    return g


def missing_final():
    b = ActivityBuilder("G")
    a = b.task("a", jar="x.jar", cls="X")
    b.chain(b.initial(), a)
    return b.graph


def unreachable_vertex():
    b = ActivityBuilder("G")
    a = b.task("a", jar="x.jar", cls="X")
    b.chain(b.initial(), a, b.final())
    b.task("orphan", jar="x.jar", cls="X")
    return b.graph


def missing_required_tag():
    g = ActivityGraph("G")
    init = g.add_initial()
    a = g.add_action("a")
    final = g.add_final()
    g.add_transition(init, a)
    g.add_transition(a, final)
    return g


def tagged(**tags):
    """A one-task chain whose task then gets *tags* on top of its own."""

    def build():
        b = ActivityBuilder("G")
        a = b.task("a", jar="x.jar", cls="X", params=[("Integer", "1")])
        for name, value in tags.items():
            a.set_tag(name, value)
        b.chain(b.initial(), a, b.final())
        return b.graph

    return build


def one_way_fork():
    g = ActivityGraph("G")
    init = g.add_initial()
    fork = g.add_fork("f")
    a = g.add_action("a")
    a.set_tag("jar", "x.jar")
    a.set_tag("class", "X")
    final = g.add_final()
    g.add_transition(init, fork)
    g.add_transition(fork, a)  # only one branch
    g.add_transition(a, final)
    return g


def bare_action():
    g = ActivityGraph("G")
    g.add_action("a")  # no tags, no transitions, no initial/final
    return g


#: defective graphs, one defect each: every entry point of the path
#: refuses each with the same codes (tests/analysis/test_integration.py)
DEFECTIVE = {
    "missing-initial": missing_initial,
    "missing-final": missing_final,
    "unreachable-vertex": unreachable_vertex,
    "missing-required-tag": missing_required_tag,
    "bad-memory": tagged(memory="-5"),
    "unknown-runmodel": tagged(runmodel="RUN_ON_MARS"),
    "one-way-fork": one_way_fork,
    "bare-action": bare_action,
    "unpaired-params": tagged(ptype1="Integer"),  # pvalue1 missing
    "gap-in-param-indices": tagged(ptype2="Integer", pvalue2="3"),
}


def errors(graph):
    """cnlint's error findings on *graph*, as ``(code, message)`` pairs."""
    model = Model("M")
    model.new_package("p").add_graph(graph)
    return [(d.code, d.message) for d in analyze_model(model).errors()]


def said(graph, code, text):
    return any(c == code and text in message for c, message in errors(graph))


class TestValidation:
    def test_valid_graph_passes(self):
        assert errors(fig3_graph()) == []

    def test_missing_initial(self):
        assert said(missing_initial(), "CN001", "initial")

    def test_missing_final(self):
        assert said(missing_final(), "CN001", "final")

    def test_unreachable_vertex(self):
        assert said(unreachable_vertex(), "CN001", "unreachable")

    def test_missing_required_tag(self):
        assert [c for c, _ in errors(missing_required_tag())] == ["CN201", "CN202"]

    def test_bad_memory(self):
        assert said(DEFECTIVE["bad-memory"](), "CN203", "memory")

    def test_unknown_runmodel(self):
        assert said(DEFECTIVE["unknown-runmodel"](), "CN204", "runmodel")

    def test_fork_arity(self):
        assert said(one_way_fork(), "CN001", "fork")

    def test_error_lists_all_problems(self):
        assert len(errors(bare_action())) >= 3

    def test_unpaired_params(self):
        assert said(DEFECTIVE["unpaired-params"](), "CN210", "unpaired")

    def test_gap_in_param_indices(self):
        assert said(DEFECTIVE["gap-in-param-indices"](), "CN210", "contiguous")
