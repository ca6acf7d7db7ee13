"""XPath 1.0 data model: a document as a few flat lists.

XPath needs parent links, document order, and distinct node kinds for
documents, elements, attributes and text -- none of which
:mod:`xml.etree.ElementTree` provides.  :func:`build_document` makes the
:class:`XDocument` the evaluator reads, in one pass over the source --
XML text through expat, a parsed ElementTree, or the calls of a writer.

A node is an int.  The document, its elements and its texts are rows,
numbered 0, 1, 2 ... in document order, each with a kind, name, value,
parent and subtree end: a row's descendants are the rows after it up to
its end, and ``//Name`` is a bisect on the ascending rows of the elements
called *Name*.  Attributes are two flat lists, names and values, in
document order; an attribute node is its index counted from the end of
them (a negative int), so ``attr_names[node]`` is its name and the
attributes of one node-set still sort in document order.  (A node-set
is all attributes or none: no step of the subset mixes them.)  No node
is an object that refers to another, so a document has no cycle and is
freed by reference count like any list.  The layout is Saxon's TinyTree.

Names are taken as they are (we run without namespace processing; the
legacy XMI vocabulary uses undeclared ``UML:`` prefixes which we treat
as part of the name, the same way the paper's early-2000s toolchain did).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Optional
from xml.parsers import expat

__all__ = ["XDocument", "build_document"]

#: row kinds, as stored in :attr:`XDocument.kinds`; a STRIPPED row is a
#: whitespace-only text that ``xsl:strip-space`` took from a document
#: the caller built, and no node
DOCUMENT, ELEMENT, TEXT, STRIPPED = range(4)
_KIND_NAMES = ("document", "element", "text", "stripped")


class XDocument:
    """One source document.  Per row:

    * ``kinds`` -- one byte, a kind above;
    * ``names`` -- an element's name, else ``''``;
    * ``values`` -- a text's value, else None;
    * ``parents`` -- the parent row; -1 for the document;
    * ``ends`` -- the first row after the subtree;
    * ``numbers`` -- the node's number in document order, counting
      attributes and the texts stripped while building, which
      ``generate-id()`` writes;
    * ``alphas`` -- the index of the row's first attribute (one more
      entry than rows: a row's attributes end where the next one's begin).

    ``attr_names`` and ``attr_values`` hold every attribute, and
    ``index`` maps each element name to its rows, ascending.
    """

    __slots__ = (
        "kinds", "names", "values", "parents", "ends", "numbers", "alphas",
        "attr_names", "attr_values", "index", "__weakref__",
    )

    def __init__(self) -> None:
        self.kinds = bytearray((DOCUMENT,))
        self.names: list[str] = [""]
        self.values: list[Optional[str]] = [None]
        self.parents: list[int] = [-1]
        self.ends: list[int] = [1]
        self.numbers: list[int] = [0]
        self.alphas: list[int] = [0]
        self.attr_names: list[str] = []
        self.attr_values: list[str] = []
        self.index: dict[str, list[int]] = {}

    def kind(self, node: int) -> str:
        return "attribute" if node < 0 else _KIND_NAMES[self.kinds[node]]

    def name(self, node: int) -> str:
        return self.attr_names[node] if node < 0 else self.names[node]

    def _owner(self, attr: int) -> int:
        """The element row an attribute node belongs to."""
        return bisect_right(self.alphas, attr + len(self.attr_names)) - 1

    def number(self, node: int) -> int:
        if node >= 0:
            return self.numbers[node]
        owner = self._owner(node)
        return self.numbers[owner] + 1 + node + len(self.attr_names) - self.alphas[owner]

    def parent(self, node: int) -> Optional[int]:
        if node < 0:
            return self._owner(node)
        up = self.parents[node]
        return up if up >= 0 else None

    def string_value(self, node: int) -> str:
        """XPath 5: an attribute's or a text's value, else the text
        descendants concatenated."""
        if node < 0:
            return self.attr_values[node]
        value = self.values[node]
        if value is not None:
            return value
        return "".join(filter(None, self.values[node + 1 : self.ends[node]]))

    def children(self, node: int) -> list[int]:
        """The element and text children, in document order: one step
        from each child to the end of its subtree."""
        if node < 0:
            return []
        kinds, ends = self.kinds, self.ends
        found = []
        child, end = node + 1, ends[node]
        while child < end:
            if kinds[child] != STRIPPED:
                found.append(child)
            child = ends[child]
        return found

    def attributes(self, node: int) -> list[int]:
        if node < 0:
            return []
        count = len(self.attr_names)
        return list(range(self.alphas[node] - count, self.alphas[node + 1] - count))

    def attribute(self, node: int, name: str) -> Optional[int]:
        """The attribute of *node* called *name*, or None."""
        if node < 0:
            return None
        names, alphas = self.attr_names, self.alphas
        for attr in range(alphas[node], alphas[node + 1]):
            if names[attr] == name:
                return attr - len(names)
        return None

    def attributes_named(self, name: str) -> Iterator[tuple[int, str]]:
        """(owner row, value) of every attribute called *name*, in
        document order: the name list searched in C, each owner bisected."""
        names, values, alphas = self.attr_names, self.attr_values, self.alphas
        attr = owner = 0
        while True:
            try:
                attr = names.index(name, attr)
            except ValueError:
                return
            owner = bisect_right(alphas, attr, owner) - 1
            yield owner, values[attr]
            attr += 1

    def descendants(self, node: int) -> list[int]:
        """The element and text descendants, in document order."""
        if node < 0:
            return []
        kinds = self.kinds
        return [row for row in range(node + 1, self.ends[node]) if kinds[row] != STRIPPED]

    def descendants_named(self, node: int, name: str) -> list[int]:
        """The descendant elements called *name*, in document order (a
        fresh list): the run of the name's index inside the subtree."""
        named = self.index.get(name)
        if not named or node < 0:
            return []
        return named[bisect_right(named, node) : bisect_left(named, self.ends[node])]


def _restore(name: str) -> str:
    """Map ``UML.ActionState`` (:func:`~repro.util.xmlutil.parse_prefixed`'s
    form) back to ``UML:ActionState`` so XPath name tests written against
    the paper's vocabulary match.  Only the UML prefix is restored; XMI 1.2
    names like ``XMI.header`` genuinely contain dots."""
    return "UML:" + name[4:] if name.startswith("UML.") else name


def _walk_etree(elem: ET.Element, start, text, end) -> None:
    """The builder's calls for an already parsed tree.  A comment or PI
    its parser kept is dropped, as expat drops one, and the text on
    either side of it stays one node."""
    if not isinstance(elem.tag, str):
        return
    start(elem.tag, [part for pair in elem.attrib.items() for part in pair])
    if elem.text:
        text(elem.text)
    for child in elem:
        _walk_etree(child, start, text, end)
        if child.tail:
            text(child.tail)
    end()


def build_document(
    root: ET.Element | str | Callable[[Callable, Callable, Callable], None],
    *,
    restore_prefixes: bool = False,
    strips: Optional[Callable[[str], bool]] = None,
) -> XDocument:
    """The :class:`XDocument` for an XML string, a parsed ElementTree or
    a callable, ``root(start, text, end)``, that makes the calls itself.

    ``restore_prefixes`` maps ``UML.Local`` element names back to
    ``UML:Local`` (see :func:`repro.util.xmlutil.parse_prefixed`).  With
    *strips* (``xsl:strip-space``) a whitespace-only text child of an
    element it names gets no row but still takes its number, so
    ``generate-id()`` does not depend on it.

    One pass and one set of rules for every source: ``start`` / ``text`` /
    ``end`` calls in document order append the rows.  Character data
    between two calls is one text node however many pieces it came in.
    """
    doc = XDocument()
    kinds, names, values, parents = doc.kinds, doc.names, doc.values, doc.parents
    ends, numbers, alphas, index = doc.ends, doc.numbers, doc.alphas, doc.index
    attr_names, attr_values = doc.attr_names, doc.attr_values
    #: the open element (or the document), whether it is stripped, and
    #: the number the next node takes
    parent, stripped, number = 0, False, 1
    enclosing: list[tuple[int, bool]] = []
    pieces: list[str] = []
    text = pieces.append

    def flush() -> None:
        """The pending character data as a text row."""
        nonlocal number
        row = len(kinds)
        kinds.append(TEXT)
        names.append("")
        values.append("".join(pieces))
        parents.append(parent)
        ends.append(row + 1)
        numbers.append(number)
        alphas.append(len(attr_names))
        pieces.clear()
        number += 1

    def start(tag: str, attrs: list[str]) -> None:
        nonlocal parent, stripped, number
        if pieces:
            if stripped and "".join(pieces).isspace():  # no row, only a number
                pieces.clear()
                number += 1
            else:
                flush()
        row = len(kinds)
        name = _restore(tag) if restore_prefixes else tag
        named = index.get(name)
        if named is None:
            index[name] = [row]
        else:
            named.append(row)
        kinds.append(ELEMENT)
        names.append(name)
        values.append(None)
        parents.append(parent)
        ends.append(0)  # set when the element ends
        numbers.append(number)
        alphas.append(len(attr_names))
        number += 1
        if attrs:
            # as expat's ordered_attributes gives them: name, value, name,
            # value ...; attribute names are never prefix-rewritten (XMI's
            # ``xmi.id`` legitimately contains a dot)
            attr_names.extend(attrs[::2])
            attr_values.extend(attrs[1::2])
            number += len(attrs) >> 1
        enclosing.append((parent, stripped))
        parent = row
        stripped = strips is not None and strips(name)

    def end(tag: Optional[str] = None) -> None:
        nonlocal parent, stripped, number
        if pieces:
            if stripped and "".join(pieces).isspace():  # no row, only a number
                pieces.clear()
                number += 1
            else:
                flush()
        ends[parent] = len(kinds)
        parent, stripped = enclosing.pop()

    if callable(root):
        root(start, text, end)
    elif not isinstance(root, str):
        _walk_etree(root, start, text, end)
    else:
        # Expat *without* namespace processing takes the paper's undeclared
        # ``UML:ActionState`` names as they are.  No comment or PI handler
        # is set: both are dropped, as ``ET.fromstring`` drops them, and
        # the text on either side of one stays one node.
        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = start
        parser.CharacterDataHandler = text
        parser.EndElementHandler = end
        try:
            parser.Parse(root, True)
        except expat.ExpatError as exc:
            error = ET.ParseError(str(exc))
            error.code, error.position = exc.code, (exc.lineno, exc.offset)
            raise error from None
    ends[0] = len(kinds)
    alphas.append(len(attr_names))
    return doc
