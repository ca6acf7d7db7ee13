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
the paper's documents do.  The writer emits the text in one pass, one
element per line with two-space indentation, attributes in a fixed order
and an element with nothing inside written self-closing -- no tree is
built only to be walked once.

Ids are deterministic (``a1, a2, ...`` in emission order) so repeated
exports of the same model are byte-identical.
"""

from __future__ import annotations

from repro.util.idgen import SequentialIds
from repro.util.xmlutil import escape_attr

from ..uml.activity import (
    ActionState,
    ActivityGraph,
    FinalState,
    Pseudostate,
    StateVertex,
    Transition,
)
from ..uml.model import Model, Package

__all__ = ["XmiWriter", "write_model", "write_graph"]

_SPEC = ' isSpecification="false"'
_PAD = tuple("  " * level for level in range(16))
_HEADER = (
    '<XMI xmi.version="1.2">\n'
    "  <XMI.header>\n"
    "    <XMI.documentation>\n"
    "      <XMI.exporter>repro.core.xmi</XMI.exporter>\n"
    "    </XMI.documentation>\n"
    "  </XMI.header>\n"
    "  <XMI.content>\n"
)


def _q(value: object) -> str:
    return escape_attr(str(value))


def _named(xid: str, name: str) -> str:
    return f' xmi.id="{xid}" name="{_q(name)}"{_SPEC}'


def _vertex_tag(vertex: StateVertex) -> str:
    if isinstance(vertex, ActionState):
        return "UML:ActionState"
    if isinstance(vertex, FinalState):
        return "UML:FinalState"
    assert isinstance(vertex, Pseudostate)
    return "UML:Pseudostate"


class XmiWriter:
    """Stateful writer: one instance per exported document."""

    def __init__(self) -> None:
        self._ids = SequentialIds("a")
        self._tagdef_ids: dict[str, str] = {}
        self._vertex_ids: dict[int, str] = {}
        self._transition_ids: dict[int, str] = {}
        self._out: list[str] = []

    # -- public API ---------------------------------------------------------
    def write(self, model: Model) -> str:
        """Serialize *model* to an XMI document string."""
        self._out = [_HEADER]
        mark = self._open(2, "UML:Model", _named(self._ids.next(), model.name))
        owned = self._open(3, "UML:Namespace.ownedElement")
        for package in model.packages:
            self._write_package(package)
        self._close(owned, 3, "UML:Namespace.ownedElement")
        self._close(mark, 2, "UML:Model")
        self._out.append("  </XMI.content>\n</XMI>\n")
        return "".join(self._out)

    # -- text ---------------------------------------------------------------
    def _open(self, level: int, tag: str, attrs: str = "") -> int:
        """Write a start tag; returns the mark :meth:`_close` takes."""
        self._out.append(f"{_PAD[level]}<{tag}{attrs}>\n")
        return len(self._out)

    def _close(self, mark: int, level: int, tag: str) -> None:
        """End the element opened at *mark*, self-closing when nothing
        was written inside it."""
        out = self._out
        if len(out) == mark:
            out[-1] = out[-1][:-2] + "/>\n"
        else:
            out.append(f"{_PAD[level]}</{tag}>\n")

    def _leaf(self, level: int, tag: str, attrs: str) -> None:
        self._out.append(f"{_PAD[level]}<{tag}{attrs}/>\n")

    # -- structure ------------------------------------------------------------
    def _write_package(self, package: Package) -> None:
        mark = self._open(4, "UML:Package", _named(self._ids.next(), package.name))
        owned = self._open(5, "UML:Namespace.ownedElement")
        # Tag definitions first, in first-use order, so TaggedValue idrefs
        # are forward-resolvable and ids stay stable (Fig. 7 has the
        # definitions at low ids: a7, a10, a13, a16).
        for graph in package.graphs:
            for action in graph.action_states():
                for tv in action.tagged_values:
                    if tv.name not in self._tagdef_ids:
                        self._tagdef_ids[tv.name] = tid = self._ids.next()
                        self._leaf(
                            6,
                            "UML:TagDefinition",
                            f' xmi.id="{tid}" name="{_q(tv.name)}"{_SPEC}'
                            ' tagType="String"',
                        )
        graph_ids = {graph.name: self._write_graph(graph) for graph in package.graphs}
        # client-level partial order (paper section 4): each (before, after)
        # pair becomes a UML:Dependency whose client is the dependent graph
        # and whose supplier is its prerequisite
        for before, after in package.job_order:
            dep = self._open(
                6, "UML:Dependency", _named(self._ids.next(), f"{after}-after-{before}")
            )
            for role, graph in (("client", after), ("supplier", before)):
                end = self._open(7, f"UML:Dependency.{role}")
                self._leaf(8, "UML:ActivityGraph", f' xmi.idref="{graph_ids[graph]}"')
                self._close(end, 7, f"UML:Dependency.{role}")
            self._close(dep, 6, "UML:Dependency")
        self._close(owned, 5, "UML:Namespace.ownedElement")
        self._close(mark, 4, "UML:Package")

    def _write_graph(self, graph: ActivityGraph) -> str:
        graph_id = self._ids.next()
        mark = self._open(6, "UML:ActivityGraph", _named(graph_id, graph.name))
        top = self._open(7, "UML:StateMachine.top")
        composite = self._open(
            8,
            "UML:CompositeState",
            f' xmi.id="{self._ids.next()}" name="top"{_SPEC} isConcurrent="false"',
        )
        subvertex = self._open(9, "UML:CompositeState.subvertex")
        # Allocate ids: vertices in insertion order, then transitions, so
        # reference lists can be emitted in one pass.
        for vertex in graph.vertices:
            self._vertex_ids[id(vertex)] = self._ids.next()
        for transition in graph.transitions:
            self._transition_ids[id(transition)] = self._ids.next()
        for vertex in graph.vertices:
            self._write_vertex(vertex)
        self._close(subvertex, 9, "UML:CompositeState.subvertex")
        self._close(composite, 8, "UML:CompositeState")
        self._close(top, 7, "UML:StateMachine.top")
        transitions = self._open(7, "UML:StateMachine.transitions")
        for transition in graph.transitions:
            self._write_transition(transition)
        self._close(transitions, 7, "UML:StateMachine.transitions")
        self._close(mark, 6, "UML:ActivityGraph")
        return graph_id

    def _write_vertex(self, vertex: StateVertex) -> None:
        tag = _vertex_tag(vertex)
        attrs = _named(self._vertex_ids[id(vertex)], vertex.name)
        if isinstance(vertex, ActionState):
            attrs += ' isDynamic="true"' if vertex.is_dynamic else ' isDynamic="false"'
            if vertex.is_dynamic and vertex.dynamic_multiplicity:
                attrs += f' dynamicMultiplicity="{_q(vertex.dynamic_multiplicity)}"'
        if isinstance(vertex, Pseudostate):
            attrs += f' kind="{_q(vertex.pseudo_kind)}"'
        mark = self._open(10, tag, attrs)
        if isinstance(vertex, ActionState):
            if vertex.is_dynamic and vertex.dynamic_arguments:
                dyn = self._open(11, "UML:ActionState.dynamicArguments")
                self._leaf(
                    12,
                    "UML:ArgListsExpression",
                    f' xmi.id="{self._ids.next()}" language="CN"'
                    f' body="{_q(vertex.dynamic_arguments)}"',
                )
                self._close(dyn, 11, "UML:ActionState.dynamicArguments")
            if vertex.tagged_values:
                values = self._open(11, "UML:ModelElement.taggedValue")
                for tv in vertex.tagged_values:
                    self._out.append(
                        f'{_PAD[12]}<UML:TaggedValue xmi.id="{self._ids.next()}"{_SPEC}'
                        f' dataValue="{_q(tv.value)}">\n'
                        f"{_PAD[13]}<UML:TaggedValue.type>\n"
                        f'{_PAD[14]}<UML:TagDefinition xmi.idref="{self._tagdef_ids[tv.name]}"/>\n'
                        f"{_PAD[13]}</UML:TaggedValue.type>\n"
                        f"{_PAD[12]}</UML:TaggedValue>\n"
                    )
                self._close(values, 11, "UML:ModelElement.taggedValue")
        for role, transitions in (("outgoing", vertex.outgoing), ("incoming", vertex.incoming)):
            if transitions:
                refs = self._open(11, f"UML:StateVertex.{role}")
                for transition in transitions:
                    self._leaf(
                        12,
                        "UML:Transition",
                        f' xmi.idref="{self._transition_ids[id(transition)]}"',
                    )
                self._close(refs, 11, f"UML:StateVertex.{role}")
        self._close(mark, 10, tag)

    def _write_transition(self, transition: Transition) -> None:
        mark = self._open(
            8,
            "UML:Transition",
            f' xmi.id="{self._transition_ids[id(transition)]}"{_SPEC}',
        )
        for role, vertex in (("source", transition.source), ("target", transition.target)):
            end = self._open(9, f"UML:Transition.{role}")
            self._leaf(10, _vertex_tag(vertex), f' xmi.idref="{self._vertex_ids[id(vertex)]}"')
            self._close(end, 9, f"UML:Transition.{role}")
        self._close(mark, 8, "UML:Transition")


def write_model(model: Model) -> str:
    """Export *model* as an XMI document string."""
    return XmiWriter().write(model)


def write_graph(graph: ActivityGraph, *, package: str = "cn", model_name: str = "model") -> str:
    """Convenience: wrap a single job graph in a model/package and export."""
    model = Model(model_name)
    pkg = model.new_package(package)
    pkg.add_graph(graph)
    return write_model(model)
