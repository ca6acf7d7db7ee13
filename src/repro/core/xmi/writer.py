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
the paper's documents do.  The writer makes, in one pass, the calls a
parser of the document makes: ``start(tag, attrs)`` (attributes as one
name, value ... list of unescaped values, in a fixed order), ``text``
(the indentation between tags too) and ``end(tag)``.  :func:`write_model`
writes them as text, an element with nothing inside self-closing;
:func:`~repro.xslt.xpath.build_document` builds the XSLT rows of them.

Ids are deterministic (``a1, a2, ...`` in emission order) so repeated
exports of the same model are byte-identical.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Sequence

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

#: the text before a tag at each depth (the root's start tag has none)
_NL = tuple("\n" + "  " * level for level in range(16))
#: whether an attribute value needs :func:`escape_attr`
_ESCAPED = re.compile('[&<>"\t\n\r]').search


def _named(xid: str, name: str) -> list[str]:
    return ["xmi.id", xid, "name", name, "isSpecification", "false"]


def _vertex_tag(vertex: StateVertex) -> str:
    if isinstance(vertex, ActionState):
        return "UML:ActionState"
    if isinstance(vertex, FinalState):
        return "UML:FinalState"
    assert isinstance(vertex, Pseudostate)
    return "UML:Pseudostate"


class XmiWriter:
    """One export of *model*: :meth:`write` makes its calls."""

    def __init__(self, model: Model) -> None:
        self.model = model
        # one writer per document: no other thread draws from its ids
        self._ids = map("a{}".format, itertools.count(1))
        self._tagdef_ids: dict[str, str] = {}
        self._vertex_ids: dict[int, str] = {}
        self._transition_ids: dict[int, str] = {}
        #: the depth of the next tag; whether the open element is still empty
        self._depth, self._empty = 0, False

    # -- public API ---------------------------------------------------------
    def write(self, start: Callable, text: Callable, end: Callable) -> None:
        """Make the document's calls, in document order."""
        self._start, self._text, self._end = start, text, end
        start("XMI", ["xmi.version", "1.2"])
        self._depth, self._empty = 1, True
        header = ("XMI.header", "XMI.documentation", "XMI.exporter")
        for tag in header:
            self._open(tag)
        text("repro.core.xmi")
        for tag in reversed(header):
            self._close(tag)
        self._open("XMI.content")
        self._open("UML:Model", _named(next(self._ids), self.model.name))
        self._open("UML:Namespace.ownedElement")
        for package in self.model.packages:
            self._write_package(package)
        self._close("UML:Namespace.ownedElement")
        self._close("UML:Model")
        self._close("XMI.content")
        self._close("XMI")

    # -- calls ----------------------------------------------------------------
    def _open(self, tag: str, attrs: Sequence[str] = ()) -> None:
        self._text(_NL[self._depth])
        self._start(tag, attrs)
        self._depth += 1
        self._empty = True

    def _close(self, tag: str) -> None:
        self._depth -= 1
        if not self._empty:
            self._text(_NL[self._depth])
        self._end(tag)
        self._empty = False

    def _leaf(self, tag: str, attrs: Sequence[str]) -> None:
        self._text(_NL[self._depth])
        self._start(tag, attrs)
        self._end(tag)
        self._empty = False

    # -- structure ------------------------------------------------------------
    def _write_package(self, package: Package) -> None:
        self._open("UML:Package", _named(next(self._ids), package.name))
        self._open("UML:Namespace.ownedElement")
        # Tag definitions first, in first-use order, so TaggedValue idrefs
        # are forward-resolvable and ids stay stable (Fig. 7 has the
        # definitions at low ids: a7, a10, a13, a16).
        for graph in package.graphs:
            for action in graph.action_states():
                for tv in action.tagged_values:
                    if tv.name not in self._tagdef_ids:
                        self._tagdef_ids[tv.name] = tid = next(self._ids)
                        attrs = [*_named(tid, tv.name), "tagType", "String"]
                        self._leaf("UML:TagDefinition", attrs)
        graph_ids = {graph.name: self._write_graph(graph) for graph in package.graphs}
        # client-level partial order (paper section 4): each (before, after)
        # pair becomes a UML:Dependency whose client is the dependent graph
        # and whose supplier is its prerequisite
        for before, after in package.job_order:
            self._open("UML:Dependency", _named(next(self._ids), f"{after}-after-{before}"))
            for role, graph in (("client", after), ("supplier", before)):
                self._open(f"UML:Dependency.{role}")
                self._leaf("UML:ActivityGraph", ["xmi.idref", graph_ids[graph]])
                self._close(f"UML:Dependency.{role}")
            self._close("UML:Dependency")
        self._close("UML:Namespace.ownedElement")
        self._close("UML:Package")

    def _write_graph(self, graph: ActivityGraph) -> str:
        graph_id = next(self._ids)
        self._open("UML:ActivityGraph", _named(graph_id, graph.name))
        self._open("UML:StateMachine.top")
        top = [*_named(next(self._ids), "top"), "isConcurrent", "false"]
        self._open("UML:CompositeState", top)
        self._open("UML:CompositeState.subvertex")
        # Allocate ids: vertices in insertion order, then transitions, so
        # reference lists can be emitted in one pass.
        for vertex in graph.vertices:
            self._vertex_ids[id(vertex)] = next(self._ids)
        for transition in graph.transitions:
            self._transition_ids[id(transition)] = next(self._ids)
        for vertex in graph.vertices:
            self._write_vertex(vertex)
        self._close("UML:CompositeState.subvertex")
        self._close("UML:CompositeState")
        self._close("UML:StateMachine.top")
        self._open("UML:StateMachine.transitions")
        for transition in graph.transitions:
            self._write_transition(transition)
        self._close("UML:StateMachine.transitions")
        self._close("UML:ActivityGraph")
        return graph_id

    def _write_vertex(self, vertex: StateVertex) -> None:
        tag = _vertex_tag(vertex)
        attrs = _named(self._vertex_ids[id(vertex)], vertex.name)
        if isinstance(vertex, ActionState):
            attrs += ["isDynamic", "true" if vertex.is_dynamic else "false"]
            if vertex.is_dynamic and vertex.dynamic_multiplicity:
                attrs += ["dynamicMultiplicity", str(vertex.dynamic_multiplicity)]
        if isinstance(vertex, Pseudostate):
            attrs += ["kind", str(vertex.pseudo_kind)]
        self._open(tag, attrs)
        if isinstance(vertex, ActionState):
            if vertex.is_dynamic and vertex.dynamic_arguments:
                self._open("UML:ActionState.dynamicArguments")
                self._leaf(
                    "UML:ArgListsExpression",
                    ["xmi.id", next(self._ids), "language", "CN",
                     "body", str(vertex.dynamic_arguments)],
                )
                self._close("UML:ActionState.dynamicArguments")
            if vertex.tagged_values:
                self._open("UML:ModelElement.taggedValue")
                for tv in vertex.tagged_values:
                    self._open(
                        "UML:TaggedValue",
                        ["xmi.id", next(self._ids), "isSpecification", "false",
                         "dataValue", str(tv.value)],
                    )
                    self._open("UML:TaggedValue.type")
                    self._leaf("UML:TagDefinition", ["xmi.idref", self._tagdef_ids[tv.name]])
                    self._close("UML:TaggedValue.type")
                    self._close("UML:TaggedValue")
                self._close("UML:ModelElement.taggedValue")
        for role, transitions in (("outgoing", vertex.outgoing), ("incoming", vertex.incoming)):
            if transitions:
                self._open(f"UML:StateVertex.{role}")
                for transition in transitions:
                    ref = ["xmi.idref", self._transition_ids[id(transition)]]
                    self._leaf("UML:Transition", ref)
                self._close(f"UML:StateVertex.{role}")
        self._close(tag)

    def _write_transition(self, transition: Transition) -> None:
        self._open(
            "UML:Transition",
            ["xmi.id", self._transition_ids[id(transition)], "isSpecification", "false"],
        )
        for role, vertex in (("source", transition.source), ("target", transition.target)):
            self._open(f"UML:Transition.{role}")
            self._leaf(_vertex_tag(vertex), ["xmi.idref", self._vertex_ids[id(vertex)]])
            self._close(f"UML:Transition.{role}")
        self._close("UML:Transition")


def write_model(model: Model) -> str:
    """Export *model* as an XMI document string."""
    out: list[str] = []
    append = out.append

    def start(tag: str, attrs: Sequence[str]) -> None:
        written = "<" + tag
        for i in range(0, len(attrs), 2):
            value = attrs[i + 1]
            written += f' {attrs[i]}="{escape_attr(value) if _ESCAPED(value) else value}"'
        append(written)
        append(">")  # "/>" if the element ends with nothing inside

    def end(tag: str) -> None:
        if out[-1] == ">":
            out[-1] = "/>"
        else:
            append(f"</{tag}>")

    # the writer's text is its indentation and the exporter's name: nothing to escape
    XmiWriter(model).write(start, append, end)
    return "".join(out) + "\n"


def write_graph(graph: ActivityGraph, *, package: str = "cn", model_name: str = "model") -> str:
    """Convenience: wrap a single job graph in a model/package and export."""
    model = Model(model_name)
    pkg = model.new_package(package)
    pkg.add_graph(graph)
    return write_model(model)
