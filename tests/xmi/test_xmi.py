"""XMI writer/reader tests: Fig. 7 structure and model roundtrips."""

import pytest

from repro.apps.floyd.model import build_fig3_model, build_fig5_model
from repro.core.uml import ActivityBuilder, Model
from repro.core.xmi import read_graphs, write_graph
from repro.core.xmi.reader import XmiReadError, read_model
from repro.core.xmi.writer import write_model
from repro.util.xmlutil import parse_prefixed


def fig3():
    return build_fig3_model(n_workers=5)


class TestWriterStructure:
    def test_fig7_vocabulary(self):
        xmi = write_graph(fig3())
        # the elements of the paper's Fig. 7 fragment, verbatim
        for token in (
            "<UML:ActionState",
            "<UML:TaggedValue",
            "<UML:TaggedValue.type>",
            "<UML:TagDefinition",
            "xmi.idref",
            "<UML:StateVertex.outgoing>",
            "<UML:StateVertex.incoming>",
            "<UML:Transition",
            "isSpecification=\"false\"",
            "isDynamic=\"false\"",
            "dataValue=\"1000\"",
            "dataValue=\"RUN_AS_THREAD_IN_TM\"",
            "dataValue=\"tctask.jar\"",
            "dataValue=\"org.jhpc.cn2.trnsclsrtask.TCTask\"",
        ):
            assert token in xmi, f"missing {token}"

    def test_xmi_structure_nesting(self):
        xmi = write_graph(fig3())
        root = parse_prefixed(xmi)
        assert root.tag == "XMI"
        assert root.get("xmi.version") == "1.2"
        assert root.find("XMI.header") is not None
        content = root.find("XMI.content")
        assert content is not None
        assert content.find("UML.Model") is not None

    def test_deterministic_output(self):
        assert write_graph(fig3()) == write_graph(fig3())

    def test_tag_definitions_declared_once(self):
        xmi = write_graph(fig3())
        root = parse_prefixed(xmi)
        defs = [
            e for e in root.iter("UML.TagDefinition") if e.get("xmi.id") is not None
        ]
        names = [e.get("name") for e in defs]
        assert len(names) == len(set(names))
        assert "jar" in names and "pvalue0" in names

    def test_id_integrity(self):
        xmi = write_graph(fig3())
        root = parse_prefixed(xmi)
        ids = set()
        refs = set()
        for elem in root.iter():
            if elem.get("xmi.id"):
                assert elem.get("xmi.id") not in ids, "duplicate xmi.id"
                ids.add(elem.get("xmi.id"))
            if elem.get("xmi.idref"):
                refs.add(elem.get("xmi.idref"))
        assert refs <= ids, f"dangling idrefs: {refs - ids}"

    def test_dynamic_action_state(self):
        xmi = write_graph(build_fig5_model())
        assert 'isDynamic="true"' in xmi
        assert 'dynamicMultiplicity="0..*"' in xmi
        assert "<UML:ArgListsExpression" in xmi

    def test_transition_endpoints(self):
        xmi = write_graph(fig3())
        root = parse_prefixed(xmi)
        transitions = [
            e for e in root.iter("UML.Transition") if e.get("xmi.id") is not None
        ]
        # init->split, split->fork, 5x fork->w, 5x w->join, join->joiner, joiner->final
        assert len(transitions) == 14
        for t in transitions:
            assert t.find("UML.Transition.source") is not None
            assert t.find("UML.Transition.target") is not None


class TestRoundtrip:
    def test_graph_roundtrip_preserves_everything(self):
        original = fig3()
        restored = read_graphs(write_graph(original))[0]
        assert restored.name == original.name
        assert [v.name for v in restored.vertices] == [v.name for v in original.vertices]
        assert restored.action_dependencies() == original.action_dependencies()
        for a, b in zip(original.action_states(), restored.action_states()):
            assert a.tags_dict() == b.tags_dict()

    def test_dynamic_roundtrip(self):
        original = build_fig5_model()
        restored = read_graphs(write_graph(original))[0]
        worker = restored.find("tctask")
        assert worker.is_dynamic
        assert worker.dynamic_multiplicity == "0..*"
        assert worker.dynamic_arguments == original.find("tctask").dynamic_arguments

    def test_multi_package_model(self):
        m = Model("M")
        p1 = m.new_package("p1")
        p2 = m.new_package("p2")
        for p, label in ((p1, "A"), (p2, "B")):
            b = ActivityBuilder(label)
            t = b.task("t", jar="x.jar", cls="X")
            b.chain(b.initial(), t, b.final())
            p.add_graph(b.build())
        restored = read_model(write_model(m))
        assert [p.name for p in restored.packages] == ["p1", "p2"]
        assert [g.name for g in restored.all_graphs()] == ["A", "B"]

    def test_roundtrip_twice_stable(self):
        xmi1 = write_graph(fig3())
        graph = read_graphs(xmi1)[0]
        xmi2 = write_graph(graph)
        assert xmi1 == xmi2


class TestReaderRobustness:
    def test_rejects_non_xmi(self):
        with pytest.raises(XmiReadError):
            read_model("<html/>")

    def test_rejects_missing_model(self):
        with pytest.raises(XmiReadError):
            read_model("<XMI><XMI.content/></XMI>")

    def test_dangling_transition_ref(self):
        bad = """<XMI><XMI.content><UML:Model name="m">
          <UML:Package name="p">
            <UML:ActivityGraph name="g">
              <UML:ActionState xmi.id="a1" name="t"/>
              <UML:Transition xmi.id="t1">
                <UML:Transition.source><UML:ActionState xmi.idref="a1"/></UML:Transition.source>
                <UML:Transition.target><UML:ActionState xmi.idref="GHOST"/></UML:Transition.target>
              </UML:Transition>
            </UML:ActivityGraph>
          </UML:Package>
        </UML:Model></XMI.content></XMI>"""
        with pytest.raises(XmiReadError, match="unknown vertex"):
            read_model(bad)

    def test_dangling_tagdef_ref(self):
        bad = """<XMI><XMI.content><UML:Model name="m">
          <UML:Package name="p">
            <UML:ActivityGraph name="g">
              <UML:ActionState xmi.id="a1" name="t">
                <UML:ModelElement.taggedValue>
                  <UML:TaggedValue xmi.id="tv1" dataValue="x">
                    <UML:TaggedValue.type><UML:TagDefinition xmi.idref="GHOST"/></UML:TaggedValue.type>
                  </UML:TaggedValue>
                </UML:ModelElement.taggedValue>
              </UML:ActionState>
            </UML:ActivityGraph>
          </UML:Package>
        </UML:Model></XMI.content></XMI>"""
        with pytest.raises(XmiReadError, match="TagDefinition"):
            read_model(bad)

    def test_tolerates_inline_tagdef_name(self):
        doc = """<XMI><XMI.content><UML:Model name="m">
          <UML:Package name="p">
            <UML:ActivityGraph name="g">
              <UML:ActionState xmi.id="a1" name="t">
                <UML:ModelElement.taggedValue>
                  <UML:TaggedValue xmi.id="tv1" dataValue="x.jar">
                    <UML:TaggedValue.type><UML:TagDefinition name="jar"/></UML:TaggedValue.type>
                  </UML:TaggedValue>
                </UML:ModelElement.taggedValue>
              </UML:ActionState>
            </UML:ActivityGraph>
          </UML:Package>
        </UML:Model></XMI.content></XMI>"""
        graph = read_graphs(doc)[0]
        assert graph.find("t").get_tag("jar") == "x.jar"

    def test_graphs_directly_under_model(self):
        doc = """<XMI><XMI.content><UML:Model name="m">
          <UML:ActivityGraph name="g">
            <UML:ActionState xmi.id="a1" name="t"/>
          </UML:ActivityGraph>
        </UML:Model></XMI.content></XMI>"""
        model = read_model(doc)
        assert model.packages[0].name == "default"
        assert model.all_graphs()[0].name == "g"
