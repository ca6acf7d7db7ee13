"""Small XML helpers shared across the code base.

The repository deliberately avoids third-party XML stacks (no ``lxml``
offline); everything is built on :mod:`xml.etree.ElementTree`.  These
helpers add the few conveniences ElementTree lacks: pretty printing with
stable attribute order, canonical comparison of documents, and qualified
name handling for the prefixed (non-namespaced) UML/XMI vocabulary the
paper's tools consume.

The XMI documents in the paper (Fig. 7) use colon-prefixed names such as
``UML:ActionState`` *without* declaring an XML namespace -- a common trait
of early-2000s XMI exporters.  ElementTree's parser refuses undeclared
prefixes, so for code that wants an ElementTree of such a document (the
XMI reader, cnlint) :func:`parse_prefixed` maps ``UML:Foo`` to the safe
form ``UML.Foo`` and :func:`serialize_prefixed` maps it back.  The XMI
writer and the XSLT engine do not take that detour: the writer emits the
text itself and the engine reads it as it is.
"""

from __future__ import annotations

import io
import re
import xml.etree.ElementTree as ET

__all__ = [
    "escape_attr",
    "escape_text",
    "pretty_print",
    "canonicalize",
    "xml_equal",
    "parse_xml",
    "parse_prefixed",
    "serialize_prefixed",
    "strip_whitespace_nodes",
]

_PREFIX_RE = re.compile(r"<(/?)([A-Za-z_][\w.-]*):([A-Za-z_][\w.-]*)")
_XMLDECL_RE = re.compile(r"^\s*<\?xml[^>]*\?>")


def escape_text(value: str) -> str:
    """Escape character data for XML text content.  A carriage return
    goes as a character reference: a parser reads one written as itself
    (alone or before a newline) as a newline."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted XML attribute value.
    Newline, tab and carriage return go as character references: a
    parser normalises each of them, written as itself, to a space
    (:func:`escape_text` has written the carriage return already)."""
    return (
        escape_text(value)
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


def parse_xml(text: str) -> ET.Element:
    """Parse an XML document string into an ElementTree element."""
    return ET.fromstring(text)


def parse_prefixed(text: str) -> ET.Element:
    """Parse XML whose tags use undeclared prefixes (``UML:ActionState``).

    Prefixed element names are rewritten to ``prefix.local`` before parsing
    so ElementTree accepts them.  Attribute names in the paper's XMI never
    carry prefixes, so only tags are rewritten.
    """
    rewritten = _PREFIX_RE.sub(lambda m: f"<{m.group(1)}{m.group(2)}.{m.group(3)}", text)
    return ET.fromstring(rewritten)


def serialize_prefixed(
    elem: ET.Element, *, indent: str = "  ", prefixes: tuple[str, ...] = ("UML",)
) -> str:
    """Serialize an element tree, mapping ``prefix.local`` tags back to
    ``prefix:local`` form for the given *prefixes*.  Inverse of
    :func:`parse_prefixed`.

    Only allow-listed prefixes are restored: XMI 1.2 element names like
    ``XMI.header`` genuinely contain dots and must stay dotted."""
    out = pretty_print(elem, indent=indent, xml_declaration=False)
    alternation = "|".join(re.escape(p) for p in prefixes)
    return re.sub(
        rf"<(/?)({alternation})\.([A-Za-z_][\w.-]*)",
        lambda m: f"<{m.group(1)}{m.group(2)}:{m.group(3)}",
        out,
    )


def _write_pretty(buf: io.StringIO, elem: ET.Element, indent: str, level: int) -> None:
    pad = indent * level
    attrs = "".join(f' {k}="{escape_attr(str(v))}"' for k, v in elem.attrib.items())
    children = list(elem)
    text = elem.text or ""
    if not children and not text:
        buf.write(f"{pad}<{elem.tag}{attrs}/>\n")
        return
    if not children:
        # leaf text is emitted verbatim: leading/trailing whitespace in
        # e.g. CNX param values is significant and must round-trip
        buf.write(f"{pad}<{elem.tag}{attrs}>{escape_text(text)}</{elem.tag}>\n")
        return
    text = text.strip()
    buf.write(f"{pad}<{elem.tag}{attrs}>\n")
    if text:
        buf.write(f"{pad}{indent}{escape_text(text)}\n")
    for child in children:
        _write_pretty(buf, child, indent, level + 1)
        tail = (child.tail or "").strip()
        if tail:
            buf.write(f"{pad}{indent}{escape_text(tail)}\n")
    buf.write(f"{pad}</{elem.tag}>\n")


def pretty_print(
    elem: ET.Element, *, indent: str = "  ", xml_declaration: bool = True
) -> str:
    """Render an element tree as an indented document string.

    Attribute order follows insertion order, which our writers keep stable,
    so output is deterministic across runs.
    """
    buf = io.StringIO()
    if xml_declaration:
        buf.write('<?xml version="1.0"?>\n')
    _write_pretty(buf, elem, indent, 0)
    return buf.getvalue()


def strip_whitespace_nodes(elem: ET.Element) -> ET.Element:
    """Drop whitespace-only text/tail in place (for canonical comparison)."""
    if elem.text is not None and not elem.text.strip():
        elem.text = None
    for child in elem:
        if child.tail is not None and not child.tail.strip():
            child.tail = None
        strip_whitespace_nodes(child)
    return elem


def _canonical(elem: ET.Element) -> tuple:
    text = (elem.text or "").strip()
    children = tuple(_canonical(c) for c in elem)
    tail_texts = tuple((c.tail or "").strip() for c in elem)
    return (
        elem.tag,
        tuple(sorted(elem.attrib.items())),
        text,
        children,
        tail_texts,
    )


def canonicalize(doc: str | ET.Element) -> tuple:
    """Reduce a document to a hashable canonical form.

    Two documents canonicalize equal iff they have the same element
    structure, the same attributes (order-insensitive), and the same
    non-whitespace character data.  Child order is significant, matching
    XML semantics for document content.
    """
    elem = parse_xml(doc) if isinstance(doc, str) else doc
    return _canonical(elem)


def xml_equal(a: str | ET.Element, b: str | ET.Element) -> bool:
    """Whether two documents are canonically equal (see :func:`canonicalize`)."""
    return canonicalize(a) == canonicalize(b)
