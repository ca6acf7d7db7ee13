"""XSLT 1.0 subset engine.

Supports the instruction set the repository's stylesheets (and a useful
superset of real-world sheets) need:

``xsl:template`` (match/name/mode/priority), ``xsl:apply-templates``
(select/mode/sort/with-param), ``xsl:call-template``, ``xsl:value-of``,
``xsl:for-each`` (with sort), ``xsl:if``, ``xsl:choose/when/otherwise``,
``xsl:text``, ``xsl:element``, ``xsl:attribute``, ``xsl:comment``,
``xsl:variable``/``xsl:param``/``xsl:with-param`` (select or content ->
result-tree fragments), ``xsl:copy``, ``xsl:copy-of``, ``xsl:message``,
``xsl:sort``, ``xsl:include``, ``xsl:output``, ``xsl:strip-space`` /
``xsl:preserve-space``, attribute value templates, built-in template
rules, template conflict resolution by priority and document order,
``xsl:key``/``key()`` hash joins, and the XSLT additions ``current()``
and ``generate-id()`` to the XPath function library.

``xsl:import`` with real
import precedence is supported (importing sheets outrank imports), as is
``xsl:apply-imports``.

Omissions (documented, not silently wrong): ``xsl:number``,
``document()``, namespace-alias, and extension elements.  The engine raises
:class:`XsltError` on any unsupported instruction so stylesheets fail
loudly rather than misbehave.

Execution model: a :class:`Stylesheet` is *lowered* once (memoised on
the sheet, at its first transform) into plain Python closures -- one per
instruction, ``instr(transformer, context, output)``, with every body a
tuple of them, every XPath expression and attribute value template
already compiled, ``xsl:sort``/``xsl:with-param`` children collected,
named templates resolved and template rules arranged in a dispatch
table keyed by ``(mode, node kind, element name)`` in winning order.
A :class:`Transformer` holds only the state of one run (``current()``,
key tables, messages), so concurrent transforms share one lowered
sheet.  Lowering never raises: a malformed or unsupported instruction
becomes a closure that raises the same :class:`XsltError` (or XPath
syntax error) the moment it is executed, and not before.
"""

from __future__ import annotations

import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .output import OutComment, OutElement, OutputBuilder, OutputSettings, serialize
from .patterns import Pattern, compile_pattern
from .xpath.datamodel import (
    XAttribute,
    XComment,
    XDocument,
    XElement,
    XNode,
    XText,
    build_document,
)
from .xpath.evaluator import Compiled, Context, XPathEvalError
from .xpath.evaluator import compile as compile_xpath
from .xpath.functions import (
    CORE_FUNCTIONS,
    XPathTypeError,
    to_boolean,
    to_nodeset,
    to_number,
    to_string,
)
from .xpath.lexer import XPathLexError
from .xpath.parser import XPathSyntaxError

XSL_NS = "http://www.w3.org/1999/XSL/Transform"
_XSL = "{%s}" % XSL_NS

__all__ = ["Stylesheet", "Transformer", "XsltError", "ResultTreeFragment", "XSL_NS"]


class XsltError(Exception):
    """Raised for stylesheet compilation or execution errors."""


class ResultTreeFragment:
    """The value of an ``xsl:variable`` with content (an RTF).

    Converts to string via the concatenated text, and can be spliced into
    the output by ``xsl:copy-of``.
    """

    def __init__(self, top: list) -> None:
        self.top = top

    def string_value(self) -> str:
        parts: list[str] = []
        pending = self.top[::-1]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, OutElement):
                pending.extend(reversed(item.children))
        return "".join(parts)


@dataclass
class TemplateRule:
    pattern: Optional[Pattern]
    name: Optional[str]
    mode: Optional[str]
    priority: float
    params: list[ET.Element]
    body: list
    order: int
    precedence: int = 0  # import precedence; importer > imported


def _is_xsl(elem: ET.Element, local: str | None = None) -> bool:
    if not isinstance(elem.tag, str) or not elem.tag.startswith(_XSL):
        return False
    return local is None or elem.tag == _XSL + local


def _local(elem: ET.Element) -> str:
    return elem.tag[len(_XSL) :]


def _body_items(elem: ET.Element) -> list:
    """Mixed-content body of a stylesheet element: interleaved text and
    child elements, with stylesheet-whitespace stripping applied."""
    items: list = []
    if elem.text and elem.text.strip():
        items.append(elem.text)
    for child in elem:
        items.append(child)
        if child.tail and child.tail.strip():
            items.append(child.tail)
    return items


# ---------------------------------------------------------------------------
# Attribute value templates
# ---------------------------------------------------------------------------

def _split_avt(value: str) -> list[tuple[bool, str]]:
    """Split an attribute value template into (is_expr, text) chunks."""
    chunks: list[tuple[bool, str]] = []
    buf: list[str] = []
    i, n = 0, len(value)
    while i < n:
        ch = value[i]
        if ch == "{":
            if value.startswith("{{", i):
                buf.append("{")
                i += 2
                continue
            end = value.find("}", i)
            if end < 0:
                raise XsltError(f"unterminated {{...}} in AVT: {value!r}")
            if buf:
                chunks.append((False, "".join(buf)))
                buf = []
            chunks.append((True, value[i + 1 : end]))
            i = end + 1
            continue
        if ch == "}":
            if value.startswith("}}", i):
                buf.append("}")
                i += 2
                continue
            raise XsltError(f"lone '}}' in AVT: {value!r}")
        buf.append(ch)
        i += 1
    if buf:
        chunks.append((False, "".join(buf)))
    return chunks


# ---------------------------------------------------------------------------
# Stylesheet
# ---------------------------------------------------------------------------

class Stylesheet:
    """A compiled stylesheet: template rules, output settings, globals."""

    def __init__(self) -> None:
        self.rules: list[TemplateRule] = []
        self.named: dict[str, TemplateRule] = {}
        self.output = OutputSettings()
        self.globals: list[ET.Element] = []  # top-level xsl:variable / xsl:param
        self.strip_space: set[str] = set()
        self.preserve_space: set[str] = set()
        self.keys: dict[str, tuple[Pattern, str]] = {}
        self._order = 0
        self._program: Optional[_Program] = None
        self._lower_lock = threading.Lock()

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_string(cls, text: str, *, base_dir: Optional[Path] = None) -> "Stylesheet":
        sheet = cls()
        sheet._load(ET.fromstring(text), base_dir)
        return sheet

    @classmethod
    def from_file(cls, path: str | Path) -> "Stylesheet":
        path = Path(path)
        sheet = cls()
        sheet._load(ET.fromstring(path.read_text()), path.parent)
        return sheet

    def _load(
        self,
        root: ET.Element,
        base_dir: Optional[Path],
        precedence_counter: Optional[list[int]] = None,
    ) -> None:
        """Compile *root*.  ``precedence_counter`` is a shared mutable
        counter implementing XSLT import precedence: imports are loaded
        first (depth-first, in document order), each complete sheet takes
        the next counter value, so an importing sheet always outranks
        everything it imports and later imports outrank earlier ones."""
        if root.tag not in (_XSL + "stylesheet", _XSL + "transform"):
            raise XsltError(f"not a stylesheet root: {root.tag}")
        if precedence_counter is None:
            precedence_counter = [0]
        # imports first (the spec requires them first in the document)
        for child in root:
            if isinstance(child.tag, str) and child.tag == _XSL + "import":
                if base_dir is None:
                    raise XsltError("xsl:import requires a base directory")
                href = child.get("href")
                if not href:
                    raise XsltError("xsl:import without href")
                imported = Stylesheet()
                path = Path(base_dir) / href
                imported._load(
                    ET.fromstring(path.read_text()), path.parent, precedence_counter
                )
                self._merge(imported)
        self._current_precedence = precedence_counter[0]
        precedence_counter[0] += 1
        for child in root:
            if not isinstance(child.tag, str):
                continue
            if not child.tag.startswith(_XSL):
                continue  # top-level literal elements are ignored
            local = _local(child)
            if local == "import":
                continue  # handled above
            if local == "template":
                self._add_template(child)
            elif local == "output":
                self.output = OutputSettings(
                    method=child.get("method", "xml"),
                    indent=child.get("indent", "no") == "yes",
                    omit_xml_declaration=child.get("omit-xml-declaration", "no") == "yes",
                    encoding=child.get("encoding", "UTF-8"),
                )
            elif local in ("variable", "param"):
                self.globals.append(child)
            elif local == "strip-space":
                self.strip_space.update(child.get("elements", "").split())
            elif local == "preserve-space":
                self.preserve_space.update(child.get("elements", "").split())
            elif local == "include":
                if base_dir is None:
                    raise XsltError("xsl:include requires a base directory")
                href = child.get("href")
                if not href:
                    raise XsltError("xsl:include without href")
                included = Stylesheet.from_file(base_dir / href)
                self._merge(included)
            elif local == "key":
                name = child.get("name")
                match = child.get("match")
                use = child.get("use")
                if not (name and match and use):
                    raise XsltError("xsl:key requires name, match and use")
                self.keys[name] = (compile_pattern(match), use)
            elif local in ("namespace-alias", "decimal-format", "attribute-set"):
                raise XsltError(f"unsupported top-level instruction xsl:{local}")
            # anything else at top level: ignore (comments etc.)

    def _merge(self, other: "Stylesheet") -> None:
        for rule in other.rules:
            rule.order = self._order
            self._order += 1
            self.rules.append(rule)  # keeps the precedence it was loaded with
        self.named.update(other.named)
        self.globals.extend(other.globals)
        self.strip_space |= other.strip_space
        self.preserve_space |= other.preserve_space
        self.keys.update(other.keys)

    def _add_template(self, elem: ET.Element) -> None:
        match = elem.get("match")
        name = elem.get("name")
        if match is None and name is None:
            raise XsltError("xsl:template needs match= or name=")
        mode = elem.get("mode")
        params = [c for c in elem if isinstance(c.tag, str) and c.tag == _XSL + "param"]
        body = [
            item
            for item in _body_items(elem)
            if not (isinstance(item, ET.Element) and _is_xsl(item, "param"))
        ]
        precedence = getattr(self, "_current_precedence", 0)
        if match is not None:
            pattern = compile_pattern(match)
            explicit = elem.get("priority")
            # Per spec, a union pattern behaves as separate rules, each with
            # its own default priority.
            for alt in pattern.split():
                priority = (
                    float(explicit) if explicit is not None else alt.default_priority()
                )
                rule = TemplateRule(
                    alt, name, mode, priority, params, body, self._order, precedence
                )
                self._order += 1
                self.rules.append(rule)
        else:
            rule = TemplateRule(None, name, mode, 0.0, params, body, self._order, precedence)
            self._order += 1
        if name is not None:
            self.named[name] = TemplateRule(
                None, name, mode, 0.0, params, body, self._order, precedence
            )

    # -- lowering and rule lookup ---------------------------------------------
    def lowered(self) -> "_Program":
        """The executable form of this sheet, built on first use and
        shared by every transform (and thread) after that."""
        program = self._program
        if program is None:
            with self._lower_lock:
                if self._program is None:
                    self._program = _Lowering(self).program()
                program = self._program
        return program

    def find_rule(
        self,
        node: XNode,
        mode: Optional[str],
        context: Context,
        *,
        max_precedence: Optional[int] = None,
    ) -> Optional[TemplateRule]:
        """The winning rule for *node*; ``max_precedence`` restricts the
        search to strictly lower import precedence (xsl:apply-imports)."""
        template = self.lowered().match(node, mode, context, max_precedence)
        return template.rule if template is not None else None


# ---------------------------------------------------------------------------
# Lowering: stylesheet -> closures
# ---------------------------------------------------------------------------

#: a lowered instruction or body
Instruction = Callable[["Transformer", Context, OutputBuilder], None]
#: a lowered xsl:variable / xsl:param / xsl:with-param value
ValueFn = Callable[["Transformer", Context], Any]

_UNSET = object()
_NO_PARAMS: Mapping[str, Any] = {}


class _Scope(dict):
    """The variable bindings of one template invocation.  A miss falls
    through to the invoking template's scope and finally to the globals,
    so one dict per invocation replaces a chain of one per body."""

    __slots__ = ("parent",)

    def __init__(self, parent: Optional["_Scope"]) -> None:
        self.parent = parent

    def __missing__(self, name: str) -> Any:
        if self.parent is None:
            raise KeyError(name)
        return self.parent[name]


def _raiser(error: type[Exception], *args: Any) -> Callable[..., Any]:
    """A closure standing in for something that cannot be lowered: it
    raises when (and only when) the stylesheet reaches it."""

    def fail(*_ignored: Any) -> Any:
        raise error(*args)

    return fail


def _xpath(source: str) -> Compiled:
    try:
        return compile_xpath(source)
    except (XPathLexError, XPathSyntaxError) as exc:
        return _raiser(type(exc), *exc.args)


def _avt(value: str) -> Compiled:
    """An attribute value template as ``context -> str``."""
    try:
        chunks = _split_avt(value)
    except XsltError as exc:
        return _raiser(XsltError, *exc.args)
    if not any(is_expr for is_expr, _ in chunks):
        text = "".join(chunk for _, chunk in chunks)
        return lambda ctx: text
    parts = tuple(_xpath(chunk) if is_expr else chunk for is_expr, chunk in chunks)
    if len(parts) == 1:
        only = parts[0]
        return lambda ctx: to_string(only(ctx))
    return lambda ctx: "".join(
        part if isinstance(part, str) else to_string(part(ctx)) for part in parts
    )


def _unit_context(ctx: Context) -> Context:
    """*ctx* with position = size = 1, which is what variable values are
    evaluated in."""
    if ctx.position == 1 == ctx.size:
        return ctx
    return Context(ctx.node, 1, 1, ctx.variables, ctx.functions)


def _no_op(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
    pass


def _element_children(node: XNode) -> list[XNode]:
    return [c for c in node.children() if not isinstance(c, XComment)]


def _clone_out(item):
    if isinstance(item, OutElement):
        return OutElement(
            item.name,
            dict(item.attributes),
            [_clone_out(c) for c in item.children],
        )
    if isinstance(item, OutComment):
        return OutComment(item.text)
    return item


def _deep_copy(node: XNode, out: OutputBuilder) -> None:
    if isinstance(node, XElement):
        out.start_element(node.name)
        for attr in node.attributes():
            out.add_attribute(attr.name, attr.value)
        for child in node.children():
            _deep_copy(child, out)
        out.end_element()
    elif isinstance(node, XText):
        out.add_text(node.value)
    elif isinstance(node, XAttribute):
        out.add_attribute(node.name, node.value)
    elif isinstance(node, XComment):
        out.add_comment(node.value)
    elif isinstance(node, XDocument):
        for child in node.children():
            _deep_copy(child, out)


class _Template:
    """One lowered template rule (or named template)."""

    __slots__ = ("rule", "params", "body")

    def __init__(self, rule: TemplateRule) -> None:
        self.rule = rule
        #: (name, default value); filled in by :class:`_Lowering`
        self.params: tuple[tuple[Optional[str], ValueFn], ...] = ()
        self.body: Instruction = _no_op


#: the rules that can match one (mode, node kind, name): in winning
#: order, and -- only if one of them has a predicate, which can raise --
#: in stylesheet order as well
_Bucket = tuple[tuple["_Template", ...], tuple["_Template", ...]]
#: per mode: node kind -> (bucket by element/attribute name, bucket for
#: any other name), plus the bucket for a node of any other kind
_ModeTable = tuple[dict[str, tuple[dict[str, _Bucket], _Bucket]], _Bucket]


class _Program:
    """What lowering a :class:`Stylesheet` produces.  Immutable once
    built; everything a run mutates lives on the :class:`Transformer`."""

    __slots__ = ("dispatch", "named", "globals", "keys", "strips")

    def __init__(self) -> None:
        self.dispatch: dict[Optional[str], _ModeTable] = {}
        self.named: dict[str, _Template] = {}
        #: (name, is xsl:param, value) per top-level variable/param
        self.globals: tuple[tuple[Optional[str], bool, ValueFn], ...] = ()
        #: name -> (match pattern, lowered ``use`` expression)
        self.keys: dict[str, tuple[Pattern, Compiled]] = {}
        #: whether whitespace-only text under an element of that name goes
        self.strips: Optional[Callable[[str], bool]] = None

    def match(
        self,
        node: XNode,
        mode: Optional[str],
        context: Context,
        max_precedence: Optional[int] = None,
    ) -> Optional[_Template]:
        """The winning template for *node*: the first one in its dispatch
        bucket whose whole pattern matches.  A bucket in which a
        predicate could raise is scanned whole and in stylesheet order
        instead, so the error is the one a scan of every rule meets."""
        table = self.dispatch.get(mode)
        if table is None:
            return None
        by_kind, any_kind = table
        kind = by_kind.get(node.node_type)
        if kind is None:
            best_first, in_order = any_kind
        else:
            best_first, in_order = kind[0].get(node.name, kind[1])
        if in_order:
            matched = [
                template
                for template in in_order
                if (max_precedence is None or template.rule.precedence < max_precedence)
                and template.rule.pattern.matches(node, context)  # type: ignore[union-attr]
            ]
            return next((t for t in best_first if t in matched), None)
        for template in best_first:
            rule = template.rule
            if max_precedence is not None and rule.precedence >= max_precedence:
                continue
            pattern = rule.pattern.alternatives[0]  # type: ignore[union-attr]
            if pattern.decided_by_key or pattern.matches(node, context):
                return template
        return None


class _Lowering:
    """Builds the :class:`_Program` of one stylesheet."""

    def __init__(self, sheet: Stylesheet) -> None:
        self.sheet = sheet
        self.named = {name: _Template(rule) for name, rule in sheet.named.items()}

    # -- the whole sheet ----------------------------------------------------
    def program(self) -> _Program:
        sheet = self.sheet
        program = _Program()
        program.named = self.named
        matched = [_Template(rule) for rule in sheet.rules if rule.pattern is not None]
        # union alternatives and the named copy of a template share one body
        shared: dict[int, tuple[tuple, Instruction]] = {}
        for template in (*matched, *self.named.values()):
            rule = template.rule
            lowered = shared.get(id(rule.body))
            if lowered is None:
                params = tuple(
                    (elem.get("name") or None, self.value(elem)) for elem in rule.params
                )
                lowered = shared[id(rule.body)] = (params, self.body(rule.body, scoped=False))
            template.params, template.body = lowered
        program.dispatch = self.dispatch_tables(matched)
        program.globals = tuple(
            (elem.get("name") or None, _local(elem) == "param", self.value(elem))
            for elem in sheet.globals
        )
        program.keys = {
            name: (pattern, _xpath(use)) for name, (pattern, use) in sheet.keys.items()
        }
        if sheet.strip_space:
            strip, preserve = frozenset(sheet.strip_space), frozenset(sheet.preserve_space)
            every = "*" in strip
            program.strips = lambda name: name not in preserve and (every or name in strip)
        return program

    @staticmethod
    def dispatch_tables(templates: list[_Template]) -> dict[Optional[str], _ModeTable]:
        """``find_rule`` precomputed: per mode, node kind and name, the
        rules that can match such a node, best (precedence, priority,
        document order) first."""

        def ranked(candidates: list[_Template]) -> _Bucket:
            # conflict resolution: the greatest of these wins
            def rank(t: _Template) -> tuple[int, float, int]:
                return (t.rule.precedence, t.rule.priority, t.rule.order)

            best_first = tuple(sorted(candidates, key=rank, reverse=True))
            if any(t.rule.pattern.alternatives[0].fallible for t in candidates):  # type: ignore[union-attr]
                return best_first, tuple(sorted(candidates, key=lambda t: t.rule.order))
            return best_first, ()

        tables: dict[Optional[str], _ModeTable] = {}
        for mode in {t.rule.mode for t in templates}:
            any_kind: list[_Template] = []
            any_name: dict[str, list[_Template]] = {}
            named: dict[str, dict[str, list[_Template]]] = {}
            for template in templates:
                if template.rule.mode != mode:
                    continue
                kind, name = template.rule.pattern.alternatives[0].dispatch_key()  # type: ignore[union-attr]
                if kind is None:
                    any_kind.append(template)
                elif name is None:
                    any_name.setdefault(kind, []).append(template)
                else:
                    named.setdefault(kind, {}).setdefault(name, []).append(template)
            by_kind = {}
            for kind in {*any_name, *named}:
                fallback = any_name.get(kind, []) + any_kind
                by_kind[kind] = (
                    {
                        name: ranked(exact + fallback)
                        for name, exact in named.get(kind, {}).items()
                    },
                    ranked(fallback),
                )
            tables[mode] = (by_kind, ranked(any_kind))
        return tables

    # -- bodies ---------------------------------------------------------------
    def body(self, items: list, *, scoped: bool = True) -> Instruction:
        """A template/instruction body as one closure.  Variables a
        *scoped* body declares are unbound again when it ends (a
        template's own body is not scoped: its scope dies with the
        invocation)."""
        instructions: list[Instruction] = []
        declared: list[str] = []
        for item in items:
            if isinstance(item, str):
                instructions.append(self.text(item))
                continue
            if _is_xsl(item, "param") and item.get("name") in declared:
                continue  # a stray body-level param only defaults a name not yet bound here
            instructions.append(self.instruction(item))
            if (_is_xsl(item, "variable") or _is_xsl(item, "param")) and item.get("name"):
                declared.append(item.get("name"))
        if not instructions:
            return _no_op
        steps = tuple(instructions)
        if not (scoped and declared):
            if len(steps) == 1:
                return steps[0]

            def run(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
                for step in steps:
                    step(tr, ctx, out)

            return run
        names = tuple(dict.fromkeys(declared))

        def run_scoped(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            scope = ctx.variables
            outer = [scope.get(name, _UNSET) for name in names]  # type: ignore[union-attr]
            for step in steps:
                step(tr, ctx, out)
            for name, value in zip(names, outer):
                if value is _UNSET:
                    scope.pop(name, None)  # type: ignore[union-attr]
                else:
                    scope[name] = value  # type: ignore[index]

        return run_scoped

    @staticmethod
    def text(text: str) -> Instruction:
        return lambda tr, ctx, out: out.add_text(text)

    def instruction(self, elem: ET.Element) -> Instruction:
        if not _is_xsl(elem):
            return self.literal_element(elem)
        name = _local(elem)
        lower = getattr(self, "xsl_" + name.replace("-", "_"), None)
        if lower is None:
            return _raiser(XsltError, f"unsupported instruction xsl:{name}")
        return lower(elem)

    def value(self, elem: ET.Element) -> ValueFn:
        """The value of an xsl:variable / xsl:param / xsl:with-param:
        its ``select``, or its content as a result-tree fragment."""
        select = elem.get("select")
        if select is not None:
            expr = _xpath(select)
            return lambda tr, ctx: expr(_unit_context(ctx))
        items = _body_items(elem)
        if not items:
            return lambda tr, ctx: ""
        body = self.body(items)

        def fragment(tr: "Transformer", ctx: Context) -> ResultTreeFragment:
            sub = OutputBuilder()
            previous = tr._current_node
            tr._current_node = ctx.node
            try:
                body(tr, _unit_context(ctx), sub)
            finally:
                tr._current_node = previous
            return ResultTreeFragment(sub.finish())

        return fragment

    def with_params(self, elem: ET.Element) -> Callable[["Transformer", Context], Mapping[str, Any]]:
        pairs = tuple(
            (child.get("name") or None, self.value(child))
            for child in elem
            if _is_xsl(child, "with-param")
        )
        if not pairs:
            return lambda tr, ctx: _NO_PARAMS

        def collect(tr: "Transformer", ctx: Context) -> dict[str, Any]:
            params: dict[str, Any] = {}
            for name, value in pairs:
                if name is None:
                    raise XsltError("xsl:with-param without name")
                params[name] = value(tr, ctx)
            return params

        return collect

    def sorter(
        self, elem: ET.Element
    ) -> Optional[Callable[["Transformer", Context, list], list]]:
        sorts = [c for c in elem if _is_xsl(c, "sort")]
        if not sorts:
            return None
        # least significant key first: list.sort is stable
        keys = tuple(
            (
                _xpath(s.get("select", ".")),
                s.get("data-type", "text") == "number",
                s.get("order", "ascending") == "descending",
            )
            for s in reversed(sorts)
        )

        def sort_nodes(tr: "Transformer", ctx: Context, nodes: list) -> list:
            ordered = list(nodes)
            key_ctx = Context(ctx.node, 1, len(nodes), ctx.variables, ctx.functions)
            previous = tr._current_node
            try:
                for select, numeric, descending in keys:

                    def key_of(node: XNode, select=select, numeric=numeric) -> Any:
                        # within a sort key, current() is the node being sorted
                        tr._current_node = key_ctx.node = node
                        raw = to_string(select(key_ctx))
                        if numeric:
                            value = to_number(raw)
                            return (value != value, value)  # NaN sorts first
                        return raw

                    ordered.sort(key=key_of, reverse=descending)
            finally:
                tr._current_node = previous
            return ordered

        return sort_nodes

    @staticmethod
    def nodeset(select: str) -> Compiled:
        """``select`` lowered for an instruction that needs a node-set."""
        expr = _xpath(select)

        def nodes(ctx: Context) -> list:
            value = expr(ctx)
            try:
                return to_nodeset(value)
            except XPathTypeError as exc:
                raise XPathEvalError(f"{select} did not yield a node-set: {exc}") from exc

        return nodes

    # -- literal result elements ------------------------------------------------
    def literal_element(self, elem: ET.Element) -> Instruction:
        # Namespaced names outside the XSL namespace are emitted with
        # their local name (we do not do namespace fixup).
        tag = elem.tag.rpartition("}")[2]
        attributes = tuple(
            (key.rpartition("}")[2], _avt(value)) for key, value in elem.attrib.items()
        )
        body = self.body(_body_items(elem))

        def literal(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            # the element is still empty, so attributes go straight in
            into = out.start_element(tag).attributes
            for key, value in attributes:
                into[key] = value(ctx)
            body(tr, ctx, out)
            out.end_element()

        return literal

    # -- instructions -------------------------------------------------------------
    def xsl_apply_templates(self, elem: ET.Element) -> Instruction:
        select = elem.get("select")
        selected = self.nodeset(select) if select is not None else None
        mode = elem.get("mode")
        sort_nodes = self.sorter(elem)
        collect = self.with_params(elem)

        def apply_templates(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            nodes = selected(ctx) if selected is not None else _element_children(ctx.node)
            if sort_nodes is not None:
                nodes = sort_nodes(tr, ctx, nodes)
            tr._apply_templates(nodes, mode, collect(tr, ctx), ctx, out)

        return apply_templates

    def xsl_call_template(self, elem: ET.Element) -> Instruction:
        name = elem.get("name")
        template = self.named.get(name or "")
        if template is None:
            return _raiser(XsltError, f"no template named {name!r}")
        collect = self.with_params(elem)

        def call_template(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            tr._invoke(
                template, ctx.node, ctx.position, ctx.size, collect(tr, ctx), ctx.variables, out
            )

        return call_template

    def xsl_apply_imports(self, elem: ET.Element) -> Instruction:
        def apply_imports(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            # re-match the current node against only the rules the current
            # template's stylesheet imported (strictly lower precedence)
            current = tr._current_rule
            if current is None:
                raise XsltError("xsl:apply-imports outside of a template")
            template = tr._program.match(ctx.node, current.mode, ctx, current.precedence)
            if template is None:
                tr._builtin_rule(ctx.node, current.mode, ctx, out)
            else:
                tr._invoke(
                    template, ctx.node, ctx.position, ctx.size, _NO_PARAMS, ctx.variables, out
                )

        return apply_imports

    def xsl_value_of(self, elem: ET.Element) -> Instruction:
        select = elem.get("select")
        if select is None:
            return _raiser(XsltError, "xsl:value-of requires select")
        expr = _xpath(select)
        return lambda tr, ctx, out: out.add_text(to_string(expr(ctx)))

    def xsl_for_each(self, elem: ET.Element) -> Instruction:
        select = elem.get("select")
        if select is None:
            return _raiser(XsltError, "xsl:for-each requires select")
        selected = self.nodeset(select)
        sort_nodes = self.sorter(elem)
        body = self.body(
            [
                item
                for item in _body_items(elem)
                if not (isinstance(item, ET.Element) and _is_xsl(item, "sort"))
            ]
        )

        def for_each(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            nodes = selected(ctx)
            if sort_nodes is not None:
                nodes = sort_nodes(tr, ctx, nodes)
            total = len(nodes)
            variables, functions = ctx.variables, ctx.functions
            previous = tr._current_node
            try:
                for position, node in enumerate(nodes, start=1):
                    tr._current_node = node
                    body(tr, Context(node, position, total, variables, functions), out)
            finally:
                tr._current_node = previous

        return for_each

    def xsl_if(self, elem: ET.Element) -> Instruction:
        test = elem.get("test")
        if test is None:
            return _raiser(XsltError, "xsl:if requires test")
        condition = _xpath(test)
        body = self.body(_body_items(elem))

        def run_if(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            if to_boolean(condition(ctx)):
                body(tr, ctx, out)

        return run_if

    def xsl_choose(self, elem: ET.Element) -> Instruction:
        branches: list[tuple[Optional[Compiled], Instruction]] = []
        for child in elem:
            if _is_xsl(child, "when"):
                test = child.get("test")
                condition = (
                    _xpath(test)
                    if test is not None
                    else _raiser(XsltError, "xsl:when requires test")
                )
                branches.append((condition, self.body(_body_items(child))))
            elif _is_xsl(child, "otherwise"):
                branches.append((None, self.body(_body_items(child))))
                break  # nothing after xsl:otherwise is ever reached
        arms = tuple(branches)

        def choose(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            for condition, body in arms:
                if condition is None or to_boolean(condition(ctx)):
                    body(tr, ctx, out)
                    return

        return choose

    def xsl_text(self, elem: ET.Element) -> Instruction:
        return self.text(elem.text or "")

    def xsl_element(self, elem: ET.Element) -> Instruction:
        name = elem.get("name")
        if not name:
            return _raiser(XsltError, "xsl:element requires name")
        name_of = _avt(name)
        body = self.body(_body_items(elem))

        def element(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            out.start_element(name_of(ctx))
            body(tr, ctx, out)
            out.end_element()

        return element

    def xsl_attribute(self, elem: ET.Element) -> Instruction:
        name = elem.get("name")
        if not name:
            return _raiser(XsltError, "xsl:attribute requires name")
        name_of = _avt(name)
        body = self.body(_body_items(elem))

        def attribute(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            sub = OutputBuilder()
            body(tr, ctx, sub)
            out.add_attribute(name_of(ctx), sub.string_value())

        return attribute

    def xsl_comment(self, elem: ET.Element) -> Instruction:
        body = self.body(_body_items(elem))

        def comment(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            sub = OutputBuilder()
            body(tr, ctx, sub)
            out.add_comment(sub.string_value())

        return comment

    def xsl_variable(self, elem: ET.Element) -> Instruction:
        name = elem.get("name")
        if not name:
            return _raiser(XsltError, "xsl:variable requires name")
        value = self.value(elem)

        def variable(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            ctx.variables[name] = value(tr, ctx)  # type: ignore[index]

        return variable

    def xsl_param(self, elem: ET.Element) -> Instruction:
        # Template params are hoisted into the invocation; a stray
        # body-level param acts as a defaulted variable (see body()).
        if not elem.get("name"):
            return _raiser(XsltError, "xsl:param requires name")
        return self.xsl_variable(elem)

    def xsl_message(self, elem: ET.Element) -> Instruction:
        body = self.body(_body_items(elem))
        terminate = elem.get("terminate", "no") == "yes"

        def message(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            sub = OutputBuilder()
            body(tr, ctx, sub)
            print(f"[xsl:message] {sub.string_value()}", file=tr.message_stream)
            if terminate:
                raise XsltError(f"terminated by xsl:message: {sub.string_value()}")

        return message

    def xsl_copy(self, elem: ET.Element) -> Instruction:
        body = self.body(_body_items(elem))

        def copy(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            node = ctx.node
            if isinstance(node, XElement):
                out.start_element(node.name)
                body(tr, ctx, out)
                out.end_element()
            elif isinstance(node, XText):
                out.add_text(node.string_value())
            elif isinstance(node, XAttribute):
                out.add_attribute(node.name, node.value)
            elif isinstance(node, XComment):
                out.add_comment(node.string_value())
            else:  # document node: just process content
                body(tr, ctx, out)

        return copy

    def xsl_copy_of(self, elem: ET.Element) -> Instruction:
        select = elem.get("select")
        if select is None:
            return _raiser(XsltError, "xsl:copy-of requires select")
        expr = _xpath(select)

        def copy_of(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            value = expr(ctx)
            if isinstance(value, ResultTreeFragment):
                for item in value.top:
                    out.add_tree(_clone_out(item))
            elif isinstance(value, list):
                for node in value:
                    _deep_copy(node, out)
            else:
                out.add_text(to_string(value))

        return copy_of

    def _ignored(self, elem: ET.Element) -> Instruction:
        return _no_op

    xsl_sort = _ignored  # handled by the enclosing for-each / apply-templates
    xsl_fallback = _ignored
    xsl_processing_instruction = _ignored  # accepted for portability, not emitted


# ---------------------------------------------------------------------------
# Transformer
# ---------------------------------------------------------------------------

class Transformer:
    """Executes a :class:`Stylesheet` against a source document.

    Holds the state of one run; the lowered stylesheet it executes is
    shared.  Not itself thread-safe: use one per thread."""

    def __init__(
        self,
        stylesheet: Stylesheet,
        *,
        extra_functions: Optional[Mapping[str, Any]] = None,
        message_stream=None,
    ) -> None:
        self.stylesheet = stylesheet
        self.extra_functions = dict(extra_functions or {})
        self.message_stream = message_stream if message_stream is not None else sys.stderr
        self._current_node: Optional[XNode] = None
        self._current_rule: Optional[TemplateRule] = None
        self._key_tables: dict[str, dict[str, list[XNode]]] = {}
        self._doc: Optional[XDocument] = None
        self._program: Optional[_Program] = None
        self._functions: dict[str, Any] = {}

    # -- public API ---------------------------------------------------------
    def transform(
        self,
        source: Union[str, ET.Element, XDocument],
        params: Optional[Mapping[str, Any]] = None,
        *,
        restore_prefixes: bool = False,
    ) -> str:
        top = self.transform_to_tree(source, params, restore_prefixes=restore_prefixes)
        return serialize(top, self.stylesheet.output)

    def transform_to_tree(
        self,
        source: Union[str, ET.Element, XDocument],
        params: Optional[Mapping[str, Any]] = None,
        *,
        restore_prefixes: bool = False,
    ) -> list:
        program = self._program = self.stylesheet.lowered()
        if not self._functions:
            self._functions = self._function_table()
        built_here = not isinstance(source, XDocument)
        if built_here:
            doc = build_document(
                source, restore_prefixes=restore_prefixes, strips=program.strips
            )
        else:
            doc = source
            if program.strips is not None:
                _strip_space(doc, program.strips)
        self._doc = doc
        try:
            out = OutputBuilder()
            scope = self._bind_globals(program, doc, dict(params or {}))
            root = Context(doc, 1, 1, scope, self._functions)
            self._apply_templates([doc], None, _NO_PARAMS, root, out)
            return out.finish()
        finally:
            # let go of the run's view of the source, and of the parent
            # links of a tree built here, so it is freed by reference
            # count; a caller's XDocument is theirs and stays whole
            self._doc, self._key_tables = None, {}
            if built_here:
                doc.unlink()

    # -- setup ----------------------------------------------------------------
    def _function_table(self) -> dict[str, Any]:
        fns = dict(CORE_FUNCTIONS)
        fns.update(self.extra_functions)
        fns["current"] = lambda ctx: (
            [self._current_node] if self._current_node is not None else []
        )
        fns["key"] = self._fn_key
        fns["generate-id"] = self._fn_generate_id
        fns["system-property"] = lambda ctx, name: ""
        fns["function-available"] = lambda ctx, name: to_string(name) in fns
        fns["element-available"] = lambda ctx, name: False
        return fns

    def _key_table(self, name: str) -> dict[str, list[XNode]]:
        """Build (once per document) the hash table for xsl:key *name*:
        every node matching the key's pattern is indexed under each
        string produced by its ``use`` expression -- this is how real
        processors make id/idref joins linear."""
        table = self._key_tables.get(name)
        if table is not None:
            return table
        assert self._program is not None and self._doc is not None
        declaration = self._program.keys.get(name)
        if declaration is None:
            raise XsltError(f"no xsl:key named {name!r}")
        pattern, use = declaration
        table = {}
        probe = Context(self._doc, 1, 1, {}, self._functions)
        at_node = Context(self._doc, 1, 1, {}, self._functions)
        # a one-alternative pattern that ends in an element name can only
        # match what the name index lists under it, and one that is just
        # that name (or ``*``) matches every candidate
        candidates, decided = self._doc.descendants_list(), False
        if len(pattern.alternatives) == 1:
            kind, element = pattern.alternatives[0].dispatch_key()
            if kind == "element":
                decided = pattern.alternatives[0].decided_by_key
                if element is not None:
                    candidates = self._doc.name_index().get(element, [])
        for node in candidates:
            if node.node_type != "element" or not (decided or pattern.matches(node, probe)):
                continue
            at_node.node = node
            value = use(at_node)
            if isinstance(value, list):
                for hit in value:
                    table.setdefault(hit.string_value(), []).append(node)
            else:
                table.setdefault(to_string(value), []).append(node)
        self._key_tables[name] = table
        return table

    def _fn_key(self, ctx: Context, name: Any, value: Any) -> list[XNode]:
        table = self._key_table(to_string(name))
        if isinstance(value, list):
            gathered: list[XNode] = []
            seen: set[int] = set()
            for node in value:
                for hit in table.get(node.string_value(), ()):
                    if id(hit) not in seen:
                        seen.add(id(hit))
                        gathered.append(hit)
            gathered.sort(key=lambda n: n.doc_order)
            return gathered
        return list(table.get(to_string(value), ()))

    def _fn_generate_id(self, ctx: Context, *args: Any) -> str:
        if args:
            nodes = to_nodeset(args[0])
            if not nodes:
                return ""
            node = nodes[0]
        else:
            node = ctx.node
        return f"id{node.doc_order}"

    def _bind_globals(
        self, program: _Program, doc: XDocument, params: dict[str, Any]
    ) -> _Scope:
        scope = _Scope(None)
        ctx = Context(doc, 1, 1, scope, self._functions)
        for name, is_param, value in program.globals:
            if name is None:
                raise XsltError("top-level variable/param without name")
            if is_param and name in params:
                scope[name] = params[name]
            else:
                scope[name] = value(self, ctx)
        # externally supplied params that have no matching xsl:param are
        # still made visible (lenient, convenient for tooling)
        for key, value in params.items():
            scope.setdefault(key, value)
        return scope

    # -- template application ------------------------------------------------------
    def _apply_templates(
        self,
        nodes: Sequence[XNode],
        mode: Optional[str],
        with_params: Mapping[str, Any],
        ctx: Context,
        out: OutputBuilder,
    ) -> None:
        """Apply the winning template (or the built-in rule) to each of
        *nodes*; *ctx* is the caller's context, whose variables pattern
        predicates and invoked templates can see."""
        program = self._program
        assert program is not None
        size = len(nodes)
        for position, node in enumerate(nodes, start=1):
            template = program.match(node, mode, ctx)
            if template is None:
                self._builtin_rule(node, mode, ctx, out)
            else:
                self._invoke(template, node, position, size, with_params, ctx.variables, out)

    def _builtin_rule(
        self, node: XNode, mode: Optional[str], ctx: Context, out: OutputBuilder
    ) -> None:
        if isinstance(node, (XDocument, XElement)):
            self._apply_templates(_element_children(node), mode, _NO_PARAMS, ctx, out)
        elif isinstance(node, (XText, XAttribute)):
            out.add_text(node.string_value())
        # comments and PIs: no output

    def _invoke(
        self,
        template: _Template,
        node: XNode,
        position: int,
        size: int,
        with_params: Mapping[str, Any],
        caller_scope: Mapping[str, Any],
        out: OutputBuilder,
    ) -> None:
        scope = _Scope(caller_scope)  # type: ignore[arg-type]
        ctx = Context(node, position, size, scope, self._functions)
        for name, default in template.params:
            if name is None:
                raise XsltError("xsl:param without name")
            scope[name] = with_params[name] if name in with_params else default(self, ctx)
        previous = self._current_rule, self._current_node
        self._current_rule, self._current_node = template.rule, node
        try:
            template.body(self, ctx, out)
        finally:
            self._current_rule, self._current_node = previous


def _strip_space(doc: XDocument, strips: Callable[[str], bool]) -> None:
    """xsl:strip-space for a tree the caller built (``build_document``
    does it while building): drop the whitespace-only text children of
    the elements *strips* names, and the cached views that listed them."""
    for node in doc.descendants_list():
        if node.node_type != "element" or not strips(node.name):
            continue
        children = node.children()
        kept = [c for c in children if c.node_type != "text" or not c.value.isspace()]  # type: ignore[attr-defined]
        if len(kept) != len(children):
            children[:] = kept
            stale: Optional[XNode] = node
            while stale is not None:
                stale._desc_cache = None
                stale = stale.parent


def transform_file(
    stylesheet_path: str | Path,
    source: Union[str, ET.Element],
    params: Optional[Mapping[str, Any]] = None,
    *,
    restore_prefixes: bool = False,
) -> str:
    """One-shot convenience: load stylesheet from *stylesheet_path* and
    transform *source*."""
    sheet = Stylesheet.from_file(stylesheet_path)
    return Transformer(sheet).transform(
        source, params, restore_prefixes=restore_prefixes
    )
