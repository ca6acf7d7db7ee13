"""XPath 1.0 data model over ElementTree.

XPath needs parent pointers, document order, and distinct node kinds for
documents, elements, attributes, text, and comments -- none of which
:mod:`xml.etree.ElementTree` provides.  This module wraps a parsed
ElementTree into an immutable node tree exposing exactly the properties
the evaluator requires:

* ``parent`` links and a global ``doc_order`` index (attributes order
  after their owner element, before its children, matching the spec's
  "attribute nodes occur before the children of the element"),
* the *string-value* of every node kind per XPath 1.0 section 5,
* expanded names (we run without namespace processing; the legacy XMI
  vocabulary uses undeclared ``UML:`` prefixes which we treat as part of
  the name, the same way the paper's early-2000s toolchain did).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterator, Optional

__all__ = [
    "XNode",
    "XDocument",
    "XElement",
    "XAttribute",
    "XText",
    "XComment",
    "build_document",
]

_DOT_PREFIX_KINDS = ("element",)


_NO_ATTRIBUTES: dict = {}


class XNode:
    """Base class for all XPath nodes."""

    __slots__ = ("parent", "name", "doc_order", "_desc_cache", "_name_index_cache")

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
        raise NotImplementedError

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

    def ancestors(self) -> Iterator["XNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["XNode"]:
        yield from self.descendants_list()

    def descendants_list(self) -> list["XNode"]:
        """All descendants in document order, cached.

        The tree is immutable once evaluation starts (strip-space runs
        before the first query), so the cache never needs invalidation;
        ``//``-heavy stylesheets hit this on every apply-templates."""
        cached = self._desc_cache
        if cached is None:
            cached = []
            for child in self.children():
                cached.append(child)
                cached.extend(child.descendants_list())
            self._desc_cache = cached
        return cached

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

    def string_value(self) -> str:
        return "".join(
            c.string_value() for c in self._children if c.node_type in ("element", "text")
        )

    @property
    def document_element(self) -> "XElement":
        for child in self._children:
            if isinstance(child, XElement):
                return child
        raise ValueError("document has no document element")


class XElement(XNode):
    __slots__ = ("_children", "_attr_map", "etree")

    node_type = "element"

    def __init__(self, parent: Optional[XNode], name: str, etree: Optional[ET.Element] = None) -> None:
        super().__init__(parent, name)
        self._children: list[XNode] = []
        #: attribute nodes by name, in document order; elements without
        #: attributes share one empty map
        self._attr_map: dict[str, XAttribute] = _NO_ATTRIBUTES
        self.etree = etree

    def children(self) -> list[XNode]:
        return self._children

    def attributes(self) -> list["XAttribute"]:
        return list(self._attr_map.values())

    def attribute(self, attr_name: str) -> Optional["XAttribute"]:
        """The attribute node named *attr_name*, by dict lookup."""
        return self._attr_map.get(attr_name)

    def get(self, attr_name: str) -> Optional[str]:
        attr = self._attr_map.get(attr_name)
        return attr.value if attr is not None else None

    def string_value(self) -> str:
        parts: list[str] = []
        for node in self.descendants():
            if node.node_type == "text":
                parts.append(node.string_value())
        return "".join(parts)


class XAttribute(XNode):
    __slots__ = ("value",)

    node_type = "attribute"

    def __init__(self, parent: XNode, name: str, value: str) -> None:
        super().__init__(parent, name)
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


class XComment(XNode):
    __slots__ = ("value",)

    node_type = "comment"

    def __init__(self, parent: XNode, value: str) -> None:
        super().__init__(parent)
        self.value = value

    def string_value(self) -> str:
        return self.value


_RESTORED_PREFIXES = ("UML",)


def _restore(name: str, restore_prefixes: bool) -> str:
    """Map ``UML.ActionState`` (our undeclared-prefix parse form) back to
    ``UML:ActionState`` so XPath name tests written against the paper's
    vocabulary match.  Only the UML prefix is restored; XMI 1.2 names
    like ``XMI.header`` genuinely contain dots."""
    if restore_prefixes and "." in name:
        head, _, tail = name.partition(".")
        if head in _RESTORED_PREFIXES:
            return f"{head}:{tail}"
    return name


def build_document(root: ET.Element | str, *, restore_prefixes: bool = False) -> XDocument:
    """Wrap a parsed ElementTree (or XML string) as an :class:`XDocument`.

    ``restore_prefixes`` maps ``Prefix.Local`` tag/attr names back to
    ``Prefix:Local`` (see :mod:`repro.util.xmlutil.parse_prefixed`).

    One pass creates the nodes and numbers them in document order (an
    element, then its attributes, then its children).
    """
    if isinstance(root, str):
        root = ET.fromstring(root)
    doc = XDocument()
    doc.doc_order = 0
    order = 1

    def add_text(owner: XElement, value: str) -> None:
        nonlocal order
        text = XText(owner, value)
        text.doc_order = order
        order += 1
        owner._children.append(text)

    def convert(elem: ET.Element, parent: XNode) -> None:
        nonlocal order
        tag = elem.tag
        if not isinstance(tag, str):  # comments / PIs parsed by ElementTree
            comment = XComment(parent, elem.text or "")
            comment.doc_order = order
            order += 1
            parent.children().append(comment)
            return
        xelem = XElement(parent, _restore(tag, restore_prefixes), etree=elem)
        xelem.doc_order = order
        order += 1
        # Attribute names are never prefix-rewritten: XMI attributes such as
        # ``xmi.id`` legitimately contain dots and must stay as-is.
        if elem.attrib:
            attributes = xelem._attr_map = {}
            for key, value in elem.attrib.items():
                attr = attributes[key] = XAttribute(xelem, key, value)
                attr.doc_order = order
                order += 1
        if elem.text:
            add_text(xelem, elem.text)
        for child in elem:
            convert(child, xelem)
            if child.tail:
                add_text(xelem, child.tail)
        parent.children().append(xelem)

    convert(root, doc)
    return doc
