"""XMI 1.2 / UML 1.x export of activity-graph models.

Produces documents structurally matching the paper's Fig. 7 fragment:
``UML:ActionState`` elements with ``isSpecification``/``isDynamic``
attributes, nested ``UML:TaggedValue`` elements whose type is a
``UML:TagDefinition`` reference by ``xmi.idref``, and
``UML:StateVertex.outgoing``/``.incoming`` transition reference lists.
Transitions are serialized once, under ``UML:StateMachine.transitions``,
with source/target references -- the layout early-2000s XMI exporters
(Poseidon, ArgoUML) produced and the paper's XMI2CNX tool consumed.

The generated vocabulary uses the undeclared ``UML:`` prefix exactly as
the paper's documents do: the element tree is built with ``UML:`` tags
(``ET.Element`` does not validate them) and
:func:`repro.util.xmlutil.pretty_print` writes tags verbatim.

Ids are deterministic (``a1, a2, ...`` in emission order) so repeated
exports of the same model are byte-identical.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.util.idgen import SequentialIds
from repro.util.xmlutil import pretty_print

from ..uml.activity import (
    ActionState,
    ActivityGraph,
    FinalState,
    Pseudostate,
    StateVertex,
    Transition,
)
from ..uml.model import Model, Package
from ..uml.tags import TaggedElement

__all__ = ["XmiWriter", "write_model", "write_graph"]

_FALSE = "false"


class XmiWriter:
    """Stateful writer: one instance per exported document."""

    def __init__(self) -> None:
        self._ids = SequentialIds("a")
        self._tagdef_ids: dict[str, str] = {}
        self._vertex_ids: dict[int, str] = {}
        self._transition_ids: dict[int, str] = {}

    # -- public API ---------------------------------------------------------
    def write(self, model: Model) -> str:
        """Serialize *model* to an XMI document string."""
        return pretty_print(self.to_element(model), xml_declaration=False)

    def to_element(self, model: Model) -> ET.Element:
        root = ET.Element("XMI", {"xmi.version": "1.2"})
        header = ET.SubElement(root, "XMI.header")
        doc = ET.SubElement(header, "XMI.documentation")
        exporter = ET.SubElement(doc, "XMI.exporter")
        exporter.text = "repro.core.xmi"
        content = ET.SubElement(root, "XMI.content")
        model_elem = ET.SubElement(
            content,
            "UML:Model",
            {
                "xmi.id": self._ids.next(),
                "name": model.name,
                "isSpecification": _FALSE,
            },
        )
        owned = ET.SubElement(model_elem, "UML:Namespace.ownedElement")
        for package in model.packages:
            self._write_package(owned, package)
        return root

    # -- structure ------------------------------------------------------------
    def _write_package(self, parent: ET.Element, package: Package) -> None:
        pkg_elem = ET.SubElement(
            parent,
            "UML:Package",
            {
                "xmi.id": self._ids.next(),
                "name": package.name,
                "isSpecification": _FALSE,
            },
        )
        owned = ET.SubElement(pkg_elem, "UML:Namespace.ownedElement")
        # Tag definitions first, in first-use order, so TaggedValue idrefs
        # are forward-resolvable and ids stay stable (Fig. 7 has the
        # definitions at low ids: a7, a10, a13, a16).
        for graph in package.graphs:
            for action in graph.action_states():
                for tv in action.tagged_values:
                    self._tagdef_id(owned, tv.name)
        graph_ids: dict[str, str] = {}
        for graph in package.graphs:
            graph_ids[graph.name] = self._write_graph(owned, graph)
        # client-level partial order (paper section 4): each (before, after)
        # pair becomes a UML:Dependency whose client is the dependent graph
        # and whose supplier is its prerequisite
        for before, after in package.job_order:
            dep = ET.SubElement(
                owned,
                "UML:Dependency",
                {
                    "xmi.id": self._ids.next(),
                    "name": f"{after}-after-{before}",
                    "isSpecification": _FALSE,
                },
            )
            client = ET.SubElement(dep, "UML:Dependency.client")
            ET.SubElement(
                client, "UML:ActivityGraph", {"xmi.idref": graph_ids[after]}
            )
            supplier = ET.SubElement(dep, "UML:Dependency.supplier")
            ET.SubElement(
                supplier, "UML:ActivityGraph", {"xmi.idref": graph_ids[before]}
            )

    def _tagdef_id(self, owned: ET.Element, name: str) -> str:
        existing = self._tagdef_ids.get(name)
        if existing is not None:
            return existing
        tid = self._ids.next()
        self._tagdef_ids[name] = tid
        ET.SubElement(
            owned,
            "UML:TagDefinition",
            {
                "xmi.id": tid,
                "name": name,
                "isSpecification": _FALSE,
                "tagType": "String",
            },
        )
        return tid

    def _write_graph(self, parent: ET.Element, graph: ActivityGraph) -> str:
        graph_id = self._ids.next()
        graph_elem = ET.SubElement(
            parent,
            "UML:ActivityGraph",
            {
                "xmi.id": graph_id,
                "name": graph.name,
                "isSpecification": _FALSE,
            },
        )
        top = ET.SubElement(graph_elem, "UML:StateMachine.top")
        composite = ET.SubElement(
            top,
            "UML:CompositeState",
            {
                "xmi.id": self._ids.next(),
                "name": "top",
                "isSpecification": _FALSE,
                "isConcurrent": _FALSE,
            },
        )
        subvertex = ET.SubElement(composite, "UML:CompositeState.subvertex")

        # Allocate ids: vertices in insertion order, then transitions, so
        # reference lists can be emitted in one pass.
        for vertex in graph.vertices:
            self._vertex_ids[id(vertex)] = self._ids.next()
        for transition in graph.transitions:
            self._transition_ids[id(transition)] = self._ids.next()

        for vertex in graph.vertices:
            self._write_vertex(subvertex, vertex)

        transitions_elem = ET.SubElement(graph_elem, "UML:StateMachine.transitions")
        for transition in graph.transitions:
            self._write_transition(transitions_elem, transition)
        return graph_id

    def _vertex_tag(self, vertex: StateVertex) -> str:
        if isinstance(vertex, ActionState):
            return "UML:ActionState"
        if isinstance(vertex, FinalState):
            return "UML:FinalState"
        assert isinstance(vertex, Pseudostate)
        return "UML:Pseudostate"

    def _write_vertex(self, parent: ET.Element, vertex: StateVertex) -> None:
        attrs = {
            "xmi.id": self._vertex_ids[id(vertex)],
            "name": vertex.name,
            "isSpecification": _FALSE,
        }
        if isinstance(vertex, ActionState):
            attrs["isDynamic"] = "true" if vertex.is_dynamic else "false"
            if vertex.is_dynamic and vertex.dynamic_multiplicity:
                attrs["dynamicMultiplicity"] = vertex.dynamic_multiplicity
        if isinstance(vertex, Pseudostate):
            attrs["kind"] = vertex.pseudo_kind
        elem = ET.SubElement(parent, self._vertex_tag(vertex), attrs)
        if isinstance(vertex, ActionState):
            if vertex.is_dynamic and vertex.dynamic_arguments:
                dyn = ET.SubElement(elem, "UML:ActionState.dynamicArguments")
                ET.SubElement(
                    dyn,
                    "UML:ArgListsExpression",
                    {
                        "xmi.id": self._ids.next(),
                        "language": "CN",
                        "body": vertex.dynamic_arguments,
                    },
                )
            self._write_tagged_values(elem, vertex)
        self._write_transition_refs(elem, vertex)

    def _write_tagged_values(self, elem: ET.Element, element: TaggedElement) -> None:
        if not element.tagged_values:
            return
        container = ET.SubElement(elem, "UML:ModelElement.taggedValue")
        for tv in element.tagged_values:
            tv_elem = ET.SubElement(
                container,
                "UML:TaggedValue",
                {
                    "xmi.id": self._ids.next(),
                    "isSpecification": _FALSE,
                    "dataValue": tv.value,
                },
            )
            type_elem = ET.SubElement(tv_elem, "UML:TaggedValue.type")
            ET.SubElement(
                type_elem,
                "UML:TagDefinition",
                {"xmi.idref": self._tagdef_ids[tv.name]},
            )

    def _write_transition_refs(self, elem: ET.Element, vertex: StateVertex) -> None:
        if vertex.outgoing:
            out = ET.SubElement(elem, "UML:StateVertex.outgoing")
            for transition in vertex.outgoing:
                ET.SubElement(
                    out,
                    "UML:Transition",
                    {"xmi.idref": self._transition_ids[id(transition)]},
                )
        if vertex.incoming:
            inc = ET.SubElement(elem, "UML:StateVertex.incoming")
            for transition in vertex.incoming:
                ET.SubElement(
                    inc,
                    "UML:Transition",
                    {"xmi.idref": self._transition_ids[id(transition)]},
                )

    def _write_transition(self, parent: ET.Element, transition: Transition) -> None:
        attrs = {
            "xmi.id": self._transition_ids[id(transition)],
            "isSpecification": _FALSE,
        }
        elem = ET.SubElement(parent, "UML:Transition", attrs)
        source = ET.SubElement(elem, "UML:Transition.source")
        ET.SubElement(
            source,
            self._vertex_tag(transition.source),
            {"xmi.idref": self._vertex_ids[id(transition.source)]},
        )
        target = ET.SubElement(elem, "UML:Transition.target")
        ET.SubElement(
            target,
            self._vertex_tag(transition.target),
            {"xmi.idref": self._vertex_ids[id(transition.target)]},
        )


def write_model(model: Model) -> str:
    """Export *model* as an XMI document string."""
    return XmiWriter().write(model)


def write_graph(graph: ActivityGraph, *, package: str = "cn", model_name: str = "model") -> str:
    """Convenience: wrap a single job graph in a model/package and export."""
    model = Model(model_name)
    pkg = model.new_package(package)
    pkg.add_graph(graph)
    return write_model(model)
