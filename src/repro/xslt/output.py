"""Result-tree construction and serialization for the XSLT engine.

Templates write into an :class:`OutputBuilder`, which records a lightweight
result tree (elements, attributes, text).  Serialization honors
the subset of ``xsl:output`` we support: ``method`` (xml | text),
``indent``, and ``omit-xml-declaration``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Union

from repro.util.xmlutil import escape_attr, escape_text

__all__ = ["OutElement", "OutputBuilder", "OutputSettings", "serialize"]


@dataclass
class OutElement:
    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list[Union["OutElement", str]] = field(default_factory=list)

    def string_value(self) -> str:
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, str):
                parts.append(child)
            elif isinstance(child, OutElement):
                parts.append(child.string_value())
        return "".join(parts)


@dataclass(frozen=True)
class OutputSettings:
    method: str = "xml"
    indent: bool = False
    omit_xml_declaration: bool = False
    encoding: str = "UTF-8"


class OutputError(ValueError):
    """Raised on malformed output construction (e.g. attribute after child)."""


class OutputBuilder:
    """Accumulates the result tree during a transform.

    The builder keeps a stack of open elements.  Text and elements append
    to the innermost open element, or to the top level when the stack is
    empty (text method output, or a root-level result tree fragment).
    """

    def __init__(self) -> None:
        self.top: list[Union[OutElement, str]] = []
        self._stack: list[OutElement] = []
        #: where the next node goes: the innermost open element's
        #: children, or ``top``
        self._sink: list = self.top
        #: per open element: does it have a child other than
        #: whitespace-only text yet (after which attributes are refused)
        self._has_content: list[bool] = []

    # -- construction -------------------------------------------------------
    def start_element(self, name: str) -> OutElement:
        elem = OutElement(name)
        self._sink.append(elem)
        if self._has_content:
            self._has_content[-1] = True
        self._stack.append(elem)
        self._has_content.append(False)
        self._sink = elem.children
        return elem

    def end_element(self) -> None:
        if not self._stack:
            raise OutputError("end_element with no open element")
        self._stack.pop()
        self._has_content.pop()
        self._sink = self._stack[-1].children if self._stack else self.top

    def add_attribute(self, name: str, value: str) -> None:
        if not self._stack:
            raise OutputError(
                f"xsl:attribute {name!r} outside of any element"
            )
        owner = self._stack[-1]
        if self._has_content[-1]:
            raise OutputError(
                f"attribute {name!r} added after children of <{owner.name}>"
            )
        owner.attributes[name] = value

    def add_text(self, text: str) -> None:
        if text:
            self._sink.append(text)
            if self._has_content and not self._has_content[-1] and text.strip():
                self._has_content[-1] = True

    # -- results ------------------------------------------------------------
    def finish(self) -> list:
        if self._stack:
            raise OutputError(f"unclosed element <{self._stack[-1].name}>")
        return self.top

    def string_value(self) -> str:
        parts: list[str] = []
        for item in self.top:
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, OutElement):
                parts.append(item.string_value())
        return "".join(parts)


def _write_xml(buf: io.StringIO, node, settings: OutputSettings, level: int) -> None:
    pad = "  " * level if settings.indent else ""
    nl = "\n" if settings.indent else ""
    if isinstance(node, str):
        buf.write(escape_text(node))
        return
    attrs = "".join(
        f' {k}="{escape_attr(v)}"' for k, v in node.attributes.items()
    )
    has_elem_children = any(not isinstance(c, str) for c in node.children)
    text_children = [c for c in node.children if isinstance(c, str)]
    if not node.children:
        buf.write(f"{pad}<{node.name}{attrs}/>{nl}")
        return
    if not has_elem_children:
        text = "".join(text_children)
        buf.write(f"{pad}<{node.name}{attrs}>{escape_text(text)}</{node.name}>{nl}")
        return
    buf.write(f"{pad}<{node.name}{attrs}>{nl}")
    for child in node.children:
        if isinstance(child, str):
            if child.strip() or not settings.indent:
                if settings.indent:
                    buf.write(f"{pad}  {escape_text(child.strip())}{nl}")
                else:
                    buf.write(escape_text(child))
        else:
            _write_xml(buf, child, settings, level + 1)
    buf.write(f"{pad}</{node.name}>{nl}")


def _write_text(buf: io.StringIO, node) -> None:
    if isinstance(node, str):
        buf.write(node)
    else:
        for child in node.children:
            _write_text(buf, child)


def serialize(top: list, settings: OutputSettings) -> str:
    """Serialize a finished result tree per *settings*."""
    buf = io.StringIO()
    if settings.method == "text":
        for node in top:
            _write_text(buf, node)
        return buf.getvalue()
    if not settings.omit_xml_declaration:
        buf.write('<?xml version="1.0"?>\n')
    for node in top:
        if isinstance(node, str):
            if node.strip():
                buf.write(escape_text(node))
        else:
            _write_xml(buf, node, settings, 0)
    return buf.getvalue()
