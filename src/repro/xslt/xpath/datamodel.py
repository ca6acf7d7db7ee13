"""XPath 1.0 data model.

XPath needs parent pointers, document order, and distinct node kinds for
documents, elements, attributes and text -- none of which
:mod:`xml.etree.ElementTree` provides.  :func:`build_document` makes the
node tree the evaluator reads, in one pass over the source -- XML text
through expat, or an already parsed ElementTree -- exposing exactly the
properties the evaluator requires:

* ``parent`` links and a global ``doc_order`` index (attributes order
  after their owner element, before its children, matching the spec's
  "attribute nodes occur before the children of the element"),
* the *string-value* of every node kind per XPath 1.0 section 5,
* expanded names (we run without namespace processing; the legacy XMI
  vocabulary uses undeclared ``UML:`` prefixes which we treat as part of
  the name, the same way the paper's early-2000s toolchain did).

Parent links make a tree cyclic: whoever built one and is done with it
calls :meth:`XDocument.unlink`, and it is freed by reference count.
"""

from __future__ import annotations

import operator
import xml.etree.ElementTree as ET
from bisect import bisect_right
from typing import Callable, Mapping, Optional
from xml.parsers import expat

__all__ = [
    "XNode",
    "XDocument",
    "XElement",
    "XAttribute",
    "XText",
    "build_document",
]

_NO_ATTRIBUTES: dict = {}
_DOC_ORDER = operator.attrgetter("doc_order")


class XNode:
    """Base class for all XPath nodes."""

    __slots__ = (
        "parent", "name", "doc_order", "_desc_cache", "_name_index_cache", "__weakref__"
    )

    node_type = "node"

    def __init__(self, parent: Optional["XNode"], name: str = "") -> None:
        self.parent = parent
        #: the node's expanded name; '' for unnamed kinds
        self.name = name
        self.doc_order = -1  # assigned by build_document
        self._desc_cache: Optional[list["XNode"]] = None
        self._name_index_cache: Optional[dict] = None

    # -- accessors overridden per kind ------------------------------------
    def string_value(self) -> str:
        """The text descendants, concatenated (overridden by the kinds
        that hold a value)."""
        return "".join([n.value for n in self.descendants_list() if n.node_type == "text"])

    def children(self) -> list["XNode"]:
        return []

    def attributes(self) -> list["XAttribute"]:
        return []

    def attribute(self, attr_name: str) -> Optional["XAttribute"]:
        """The attribute node named *attr_name* (elements only)."""
        return None

    # -- tree walking ------------------------------------------------------
    def root(self) -> "XNode":
        node: XNode = self
        while node.parent is not None:
            node = node.parent
        return node

    def descendants_list(self) -> list["XNode"]:
        """All descendants in document order, cached.

        The tree is immutable once evaluation starts (strip-space is part
        of building it, or drops these caches when it edits a caller's
        tree), so nothing else invalidates the cache; ``//``-heavy
        stylesheets hit this on every apply-templates.  Only this node
        keeps a list: the walk caches nothing on the nodes below it."""
        cached = self._desc_cache
        if cached is None:
            cached = []
            pending = self.children()[::-1]
            while pending:
                node = pending.pop()
                cached.append(node)
                if node.children():
                    pending.extend(node.children()[::-1])
            self._desc_cache = cached
        return cached

    def name_index(self) -> dict[str, list["XNode"]]:
        """The descendant elements by name, each list in document order,
        cached like :meth:`descendants_list`: ``//Name``, by far the
        hottest query shape in real stylesheets, is a dict lookup."""
        cached = self._name_index_cache
        if cached is None:
            cached = self._name_index_cache = {}
            for descendant in self.descendants_list():
                if descendant.node_type == "element":
                    cached.setdefault(descendant.name, []).append(descendant)
        return cached

    def descendants_named(self, name: str) -> list["XNode"]:
        """The descendant elements called *name*, in document order (a
        fresh list): one run of its document's name index, bisected."""
        named = self.root().name_index().get(name, [])
        last = self
        while last.children():
            last = last.children()[-1]
        first, end = (bisect_right(named, n.doc_order, key=_DOC_ORDER) for n in (self, last))
        return named[first:end]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name or self.node_type} @{self.doc_order}>"


class XDocument(XNode):
    """The root node (distinct from the document element, per XPath)."""

    __slots__ = ("_children",)

    node_type = "document"

    def __init__(self) -> None:
        super().__init__(None)
        self._children: list[XNode] = []

    def children(self) -> list[XNode]:
        return self._children

    def unlink(self) -> None:
        """Clear every parent pointer under this document: what is left
        has no cycle and is freed when the last reference to it goes."""
        for node in self.descendants_list():
            node.parent = None
            if node.node_type == "element":
                for attr in node._attr_map.values():  # type: ignore[attr-defined]
                    attr.parent = None


class XElement(XNode):
    __slots__ = ("_children", "_attr_map")

    node_type = "element"

    def __init__(self, parent: Optional[XNode], name: str) -> None:
        # XNode.__init__, inlined: one call per node on the builder's path
        self.parent, self.name, self.doc_order = parent, name, -1
        self._desc_cache = self._name_index_cache = None
        self._children: list[XNode] = []
        #: attribute nodes by name, in document order; elements without
        #: attributes share one empty map
        self._attr_map: dict[str, XAttribute] = _NO_ATTRIBUTES

    def children(self) -> list[XNode]:
        return self._children

    def attributes(self) -> list["XAttribute"]:
        return list(self._attr_map.values())

    def attribute(self, attr_name: str) -> Optional["XAttribute"]:
        """The attribute node named *attr_name*, by dict lookup."""
        return self._attr_map.get(attr_name)


class XAttribute(XNode):
    __slots__ = ("value",)

    node_type = "attribute"

    def __init__(self, parent: XNode, name: str, value: str) -> None:
        self.parent, self.name, self.doc_order = parent, name, -1  # inlined too
        self._desc_cache = self._name_index_cache = None
        self.value = value

    def string_value(self) -> str:
        return self.value


class XText(XNode):
    __slots__ = ("value",)

    node_type = "text"

    def __init__(self, parent: XNode, value: str) -> None:
        super().__init__(parent)
        self.value = value

    def string_value(self) -> str:
        return self.value


def _restore(name: str) -> str:
    """Map ``UML.ActionState`` (:func:`~repro.util.xmlutil.parse_prefixed`'s
    form) back to ``UML:ActionState`` so XPath name tests written against
    the paper's vocabulary match.  Only the UML prefix is restored; XMI 1.2
    names like ``XMI.header`` genuinely contain dots."""
    return "UML:" + name[4:] if name.startswith("UML.") else name


def _walk_etree(elem: ET.Element, start, text, end) -> None:
    """The builder's calls for an already parsed tree.  A comment or PI
    its parser kept is dropped, as expat drops one, and the text on
    either side of it stays one node.  (Not a closure of
    ``build_document``: a recursive one would be a cycle holding the tree.)"""
    if not isinstance(elem.tag, str):
        return
    start(elem.tag, elem.attrib)
    if elem.text:
        text(elem.text)
    for child in elem:
        _walk_etree(child, start, text, end)
        if child.tail:
            text(child.tail)
    end()


def build_document(
    root: ET.Element | str,
    *,
    restore_prefixes: bool = False,
    strips: Optional[Callable[[str], bool]] = None,
) -> XDocument:
    """The :class:`XDocument` for an XML string or a parsed ElementTree.

    ``restore_prefixes`` maps ``UML.Local`` element names back to
    ``UML:Local`` (see :func:`repro.util.xmlutil.parse_prefixed`).  With
    *strips* (``xsl:strip-space``) a whitespace-only text child of an
    element it names is never allocated but still takes its number, so
    ``generate-id()`` does not depend on it.

    One pass and one set of rules for both sources: ``start`` / ``text`` /
    ``end`` calls in document order make the nodes, number them (an
    element, then its attributes, then its children) and fill the
    document's ``descendants_list()`` and ``name_index()``.  Character data
    between two calls is one text node however many pieces it came in.
    """
    doc = XDocument()
    doc.doc_order = 0
    nodes: list[XNode] = []
    index: dict[str, list[XNode]] = {}
    doc._desc_cache, doc._name_index_cache = nodes, index
    order = 1
    #: the open element (or the document) and whether it is stripped
    parent: XNode = doc
    stripped = False
    enclosing: list[tuple[XNode, bool]] = []
    pieces: list[str] = []
    text = pieces.append

    def place(node: XNode) -> None:
        nonlocal order
        node.doc_order = order
        order += 1
        parent._children.append(node)  # type: ignore[attr-defined]
        nodes.append(node)

    def flush() -> None:
        nonlocal order
        value = "".join(pieces)
        pieces.clear()
        if stripped and value.isspace():
            order += 1
        else:
            place(XText(parent, value))

    def start(tag: str, attrs: Mapping[str, str]) -> None:
        nonlocal order, parent, stripped
        if pieces:
            flush()
        name = _restore(tag) if restore_prefixes else tag
        elem = XElement(parent, name)
        place(elem)
        index.setdefault(name, []).append(elem)
        # Attribute names are never prefix-rewritten: XMI attributes such as
        # ``xmi.id`` legitimately contain dots and must stay as-is.
        if attrs:
            attributes = elem._attr_map = {}
            for key, value in attrs.items():
                attr = attributes[key] = XAttribute(elem, key, value)
                attr.doc_order = order
                order += 1
        enclosing.append((parent, stripped))
        parent = elem
        stripped = strips is not None and strips(name)

    def end(tag: Optional[str] = None) -> None:
        nonlocal parent, stripped
        if pieces:
            flush()
        parent, stripped = enclosing.pop()

    if not isinstance(root, str):
        _walk_etree(root, start, text, end)
        return doc
    # Expat *without* namespace processing takes the paper's undeclared
    # ``UML:ActionState`` names as they are.  No comment or PI handler is
    # set: both are dropped, as ``ET.fromstring`` drops them, and the text
    # on either side of one stays one node.
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.CharacterDataHandler = text
    parser.EndElementHandler = end
    try:
        parser.Parse(root, True)
    except expat.ExpatError as exc:
        error = ET.ParseError(str(exc))
        error.code, error.position = exc.code, (exc.lineno, exc.offset)
        raise error from None
    return doc
