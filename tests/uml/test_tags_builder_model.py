"""Tagged values, CN profile, builder, packages/models, rendering."""

import pytest

from repro.core.uml import (
    ActivityBuilder,
    CNProfile,
    Model,
    level_layout,
    to_ascii,
    to_dot,
)
from repro.core.uml.activity import ActivityGraph
from repro.core.uml.model import Package
from repro.core.uml.tags import TaggedElement, param_tag_names
from repro.util import dag


def job_batches(package):
    """``(batches, stuck)`` of the partial order ``order_jobs`` recorded."""
    after = {graph.name: [] for graph in package.graphs}
    for before, later in package.job_order:
        after[later].append(before)
    return dag.batches(after)


class Bag(TaggedElement):
    pass


class TestTaggedElement:
    def test_set_get(self):
        bag = Bag()
        bag.set_tag("jar", "x.jar")
        assert bag.tags_dict() == {"jar": "x.jar"}

    def test_set_replaces(self):
        bag = Bag()
        bag.set_tag("k", "1")
        bag.set_tag("k", "2")
        assert bag.tags_dict() == {"k": "2"}
        assert len(bag.tagged_values) == 1

    def test_tags_dict(self):
        bag = Bag()
        bag.set_tag("a", "1")
        bag.set_tag("b", "2")
        assert bag.tags_dict() == {"a": "1", "b": "2"}

    def test_has_tag(self):
        bag = Bag()
        assert "x" not in bag.tags_dict()
        bag.set_tag("x", "")
        assert bag.tags_dict() == {"x": ""}


class TestCNProfile:
    def test_apply_fig4_shape(self):
        bag = Bag()
        CNProfile.apply(
            bag,
            jar="tctask.jar",
            cls="org.jhpc.cn2.trnsclsrtask.TCTask",
            memory=1000,
            params=[("java.lang.Integer", "2")],
        )
        tags = bag.tags_dict()
        # exactly the Fig. 4 tag set
        assert tags == {
            "jar": "tctask.jar",
            "class": "org.jhpc.cn2.trnsclsrtask.TCTask",
            "memory": "1000",
            "runmodel": "RUN_AS_THREAD_IN_TM",
            "ptype0": "java.lang.Integer",
            "pvalue0": "2",
        }

    def test_params_roundtrip(self):
        bag = Bag()
        CNProfile.apply(
            bag, jar="j", cls="C", params=[("String", "a"), ("Integer", "2")]
        )
        assert CNProfile.params(bag) == [("String", "a"), ("Integer", "2")]

    def test_params_empty(self):
        bag = Bag()
        CNProfile.apply(bag, jar="j", cls="C")
        assert CNProfile.params(bag) == []

    def test_param_tag_names(self):
        assert param_tag_names(3) == ("ptype3", "pvalue3")

    def test_unpaired_raises(self):
        bag = Bag()
        bag.set_tag("ptype0", "Integer")
        with pytest.raises(ValueError, match="unpaired"):
            CNProfile.params(bag)


class TestBuilder:
    def test_initial_final_idempotent(self):
        b = ActivityBuilder("G")
        assert b.initial() is b.initial()
        assert b.final() is b.final()

    def test_chain_returns_last(self):
        b = ActivityBuilder("G")
        a = b.task("a", jar="x.jar", cls="X")
        c = b.task("c", jar="x.jar", cls="X")
        assert b.chain(a, c) is c

    def test_fan_out_in_names_unique(self):
        b = ActivityBuilder("G")
        hub = b.task("h", jar="x.jar", cls="X")
        sink = b.task("s", jar="x.jar", cls="X")
        w1 = [b.task(f"a{i}", jar="x.jar", cls="X") for i in range(2)]
        w2 = [b.task(f"b{i}", jar="x.jar", cls="X") for i in range(2)]
        mid = b.task("m", jar="x.jar", cls="X")
        b.chain(b.initial(), hub)
        b.fan_out_in(hub, w1, mid)
        b.fan_out_in(mid, w2, sink)
        b.chain(sink, b.final())
        g = b.build()
        forks = [v.name for v in g.vertices if v.kind == "fork"]
        assert len(set(forks)) == 2

    def test_build_returns_the_graph_unchecked(self):
        from repro.cn.errors import CnxValidationError
        from repro.core.transform import Pipeline

        b = ActivityBuilder("G")
        b.task("a", jar="x.jar", cls="X")  # dangling
        assert b.build() is b.graph
        # checking is cnlint's, once, where the pipeline takes the model in
        with pytest.raises(CnxValidationError) as refused:
            Pipeline().check(b.build())
        assert refused.value.report.codes() == {"CN001"}

    def test_dynamic_task(self):
        b = ActivityBuilder("G")
        w = b.dynamic_task("w", jar="x.jar", cls="X", argument_expr="range(3)")
        assert w.is_dynamic
        assert w.dynamic_multiplicity == "0..*"
        assert w.dynamic_arguments == "range(3)"


class TestModelPackage:
    def test_duplicate_package(self):
        m = Model("M")
        m.new_package("p")
        with pytest.raises(ValueError):
            m.new_package("p")

    def test_duplicate_graph(self):
        p = Package("p")
        p.add_graph(ActivityGraph("g"))
        with pytest.raises(ValueError):
            p.add_graph(ActivityGraph("g"))

    def test_all_graphs(self):
        m = Model("M")
        m.new_package("p1").add_graph(ActivityGraph("g1"))
        m.new_package("p2").add_graph(ActivityGraph("g2"))
        assert [g.name for g in m.all_graphs()] == ["g1", "g2"]

    def test_job_batches_no_order(self):
        p = Package("p")
        p.add_graph(ActivityGraph("a"))
        p.add_graph(ActivityGraph("b"))
        batches, stuck = job_batches(p)
        assert len(batches) == 1 and len(batches[0]) == 2 and not stuck

    def test_job_batches_sequential(self):
        p = Package("p")
        p.add_graph(ActivityGraph("a"))
        p.add_graph(ActivityGraph("b"))
        p.add_graph(ActivityGraph("c"))
        p.order_jobs("a", "b")
        p.order_jobs("b", "c")
        assert job_batches(p) == ([["a"], ["b"], ["c"]], [])

    def test_job_batches_mixed(self):
        p = Package("p")
        for n in ("a", "b", "c"):
            p.add_graph(ActivityGraph(n))
        p.order_jobs("a", "c")
        assert job_batches(p) == ([["a", "b"], ["c"]], [])

    def test_cyclic_job_order_raises(self):
        p = Package("p")
        p.add_graph(ActivityGraph("a"))
        p.add_graph(ActivityGraph("b"))
        p.order_jobs("a", "b")
        p.order_jobs("b", "a")
        assert job_batches(p) == ([], ["a", "b"])

    def test_order_jobs_validates_names(self):
        p = Package("p")
        p.add_graph(ActivityGraph("a"))
        with pytest.raises(KeyError):
            p.order_jobs("a", "ghost")


class TestRendering:
    def graph(self):
        b = ActivityBuilder("G")
        split = b.task("split", jar="s.jar", cls="S")
        workers = [b.task(f"w{i}", jar="w.jar", cls="W") for i in (1, 2)]
        join = b.task("join", jar="j.jar", cls="J")
        b.chain(b.initial(), split)
        b.fan_out_in(split, workers, join)
        b.chain(join, b.final())
        return b.build()

    def test_dot_contains_all_edges(self):
        g = self.graph()
        dot = to_dot(g)
        assert dot.count("->") == len(g.transitions)
        assert dot.startswith('digraph "G"')

    def test_dot_marks_dynamic(self):
        b = ActivityBuilder("G")
        w = b.dynamic_task("w", jar="x.jar", cls="X", multiplicity="0..*")
        s = b.task("s", jar="x.jar", cls="X")
        b.chain(b.initial(), s, w, b.final())
        dot = to_dot(b.build())
        assert "0..*" in dot

    def test_ascii_levels(self):
        art = to_ascii(self.graph())
        lines = [l for l in art.splitlines() if "[" in l or "(" in l or "==" in l]
        # initial, split, fork, workers, join, joiner, final = 7 levels
        assert len(lines) == 7
        assert "[w1]   [w2]" in art

    def test_level_layout_workers_same_level(self):
        g = self.graph()
        rows = level_layout(g)
        worker_row = [r for r in rows if any(v.name == "w1" for v in r)][0]
        assert {v.name for v in worker_row} == {"w1", "w2"}
