"""XSLT 1.0 subset engine.

Takes what the repository's stylesheet (``xmi2cnx.xsl``) needs:

``xsl:template`` (match/name), ``xsl:apply-templates`` (select,
with-param), ``xsl:call-template``, ``xsl:value-of``, ``xsl:for-each``,
``xsl:if``, ``xsl:choose/when/otherwise``, ``xsl:text``,
``xsl:attribute``, ``xsl:variable``/``xsl:param``/``xsl:with-param``
(select or content -> result-tree fragments), ``xsl:output``,
``xsl:strip-space``, ``xsl:key``/``key()`` hash joins, ``generate-id()``,
literal result elements, attribute value templates and the built-in
template rules.  A match pattern is ``/``, one element name or ``*``
(:mod:`repro.xslt.patterns`); of two rules for one node the element
name beats ``*``, and of equals the later one in the sheet wins.

Anything else -- ``xsl:import``, ``xsl:include``, ``xsl:sort``,
``xsl:copy``, modes, priorities, ``current()``, ... -- raises
:class:`XsltError` (a pattern, :class:`PatternError`; an XPath construct
outside the subset the stylesheet uses, the XPath parser's or evaluator's
error) rather than being ignored.

Execution model: a :class:`Stylesheet` is *lowered* once (memoised on
the sheet, at its first transform) into plain Python closures -- one per
instruction, ``instr(transformer, context, output)``, with every body a
tuple of them, every XPath expression and attribute value template
already compiled, named templates resolved and template rules arranged
in a dispatch table keyed by pattern.  A :class:`Transformer` holds only
the state of one run (key tables, the source document), so concurrent
transforms share one lowered sheet.  Lowering never raises: a malformed
or unsupported instruction becomes a closure that raises the same
:class:`XsltError` (or XPath syntax error) the moment it is executed,
and not before.  A top-level declaration or template the engine does not
take raises when the sheet is loaded.
"""

from __future__ import annotations

import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from .output import OutElement, OutputBuilder, OutputSettings, serialize
from .patterns import Pattern, compile_pattern
from .xpath.datamodel import DOCUMENT, ELEMENT, STRIPPED, TEXT, XDocument, build_document
from .xpath.evaluator import Compiled, Context, XPathEvalError
from .xpath.evaluator import compile as compile_xpath
from .xpath.functions import (
    CORE_FUNCTIONS,
    XPathTypeError,
    to_boolean,
    to_nodeset,
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

    Converts to string via the concatenated text.
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


class _Text(list):
    """The output of a body proved to write only text: its strings."""

    __slots__ = ()
    add_text = list.append

    def finish(self) -> list:
        return self

    def string_value(self) -> str:
        return "".join(self)


@dataclass
class TemplateRule:
    pattern: Optional[Pattern]
    name: Optional[str]
    params: list[ET.Element]
    body: list


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
            # the first '}' outside a string literal ends the expression
            end, quote = i + 1, None
            while end < n and (quote is not None or value[end] != "}"):
                if value[end] == quote:
                    quote = None
                elif quote is None and value[end] in "'\"":
                    quote = value[end]
                end += 1
            if end == n:
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
        self.rules: list[TemplateRule] = []  # template rules, in sheet order
        self.named: dict[str, TemplateRule] = {}
        self.output = OutputSettings()
        self.globals: list[ET.Element] = []  # top-level xsl:variable / xsl:param
        self.strip_space: set[str] = set()
        self.keys: dict[str, tuple[Pattern, str]] = {}
        self._program: Optional[_Program] = None
        self._lower_lock = threading.Lock()

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "Stylesheet":
        sheet = cls()
        sheet._load(ET.fromstring(text))
        return sheet

    @classmethod
    def from_file(cls, path: str | Path) -> "Stylesheet":
        return cls.from_string(Path(path).read_text())

    def _load(self, root: ET.Element) -> None:
        if root.tag not in (_XSL + "stylesheet", _XSL + "transform"):
            raise XsltError(f"not a stylesheet root: {root.tag}")
        for child in root:
            if not isinstance(child.tag, str) or not child.tag.startswith(_XSL):
                continue  # top-level literal elements are ignored
            local = _local(child)
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
            elif local == "key":
                name = child.get("name")
                match = child.get("match")
                use = child.get("use")
                if not (name and match and use):
                    raise XsltError("xsl:key requires name, match and use")
                self.keys[name] = (compile_pattern(match), use)
            else:
                raise XsltError(f"unsupported top-level instruction xsl:{local}")

    def _add_template(self, elem: ET.Element) -> None:
        match = elem.get("match")
        name = elem.get("name")
        if match is None and name is None:
            raise XsltError("xsl:template needs match= or name=")
        for unsupported in ("mode", "priority"):
            if elem.get(unsupported) is not None:
                raise XsltError(f"unsupported attribute {unsupported}= on xsl:template")
        params = [c for c in elem if isinstance(c.tag, str) and c.tag == _XSL + "param"]
        body = [
            item
            for item in _body_items(elem)
            if not (isinstance(item, ET.Element) and _is_xsl(item, "param"))
        ]
        rule = TemplateRule(
            compile_pattern(match) if match is not None else None, name, params, body
        )
        if match is not None:
            self.rules.append(rule)
        if name is not None:
            self.named[name] = rule

    # -- lowering -------------------------------------------------------------
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
        return lambda ctx: to_string(only(ctx), ctx.doc)
    return lambda ctx: "".join(
        part if isinstance(part, str) else to_string(part(ctx), ctx.doc) for part in parts
    )


def _no_op(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
    pass


class _Template:
    """One lowered template rule (or named template)."""

    __slots__ = ("rule", "params", "body")

    def __init__(self, rule: TemplateRule) -> None:
        self.rule = rule
        #: (name, default value); filled in by :class:`_Lowering`
        self.params: tuple[tuple[Optional[str], ValueFn], ...] = ()
        self.body: Instruction = _no_op


class _Program:
    """What lowering a :class:`Stylesheet` produces.  Immutable once
    built; everything a run mutates lives on the :class:`Transformer`."""

    __slots__ = ("dispatch", "named", "globals", "keys", "strips")

    def __init__(self) -> None:
        #: the winning template rule per pattern key: an element name,
        #: ``*`` or ``/``; of two rules with one key the later in the sheet
        self.dispatch: dict[str, _Template] = {}
        self.named: dict[str, _Template] = {}
        #: (name, is xsl:param, value) per top-level variable/param
        self.globals: tuple[tuple[Optional[str], bool, ValueFn], ...] = ()
        #: name -> (match pattern, lowered ``use`` expression)
        self.keys: dict[str, tuple[Pattern, Compiled]] = {}
        #: whether whitespace-only text under an element of that name goes
        self.strips: Optional[Callable[[str], bool]] = None

    def match(self, doc: XDocument, node: int) -> Optional[_Template]:
        """The winning template for *node*: its element name's rule, else
        the ``*`` rule; the ``/`` rule for the document node."""
        kind = doc.kinds[node] if node >= 0 else None  # an attribute has none
        if kind == ELEMENT:
            return self.dispatch.get(doc.names[node]) or self.dispatch.get("*")
        return self.dispatch.get("/") if kind == DOCUMENT else None


class _Lowering:
    """Builds the :class:`_Program` of one stylesheet."""

    def __init__(self, sheet: Stylesheet) -> None:
        self.sheet = sheet
        # a template with both match= and name= is one _Template
        self.templates = {
            id(rule): _Template(rule) for rule in (*sheet.rules, *sheet.named.values())
        }
        self.named = {name: self.templates[id(rule)] for name, rule in sheet.named.items()}

    # -- the whole sheet ----------------------------------------------------
    def program(self) -> _Program:
        sheet = self.sheet
        program = _Program()
        program.named = self.named
        for template in self.templates.values():
            rule = template.rule
            template.params = tuple(
                (elem.get("name") or None, self.value(elem)) for elem in rule.params
            )
            template.body = self.body(rule.body, scoped=False)
        for rule in sheet.rules:  # in sheet order, so the later rule of a key wins
            program.dispatch[rule.pattern.key] = self.templates[id(rule)]  # type: ignore[union-attr]
        program.globals = tuple(
            (elem.get("name") or None, _local(elem) == "param", self.value(elem))
            for elem in sheet.globals
        )
        program.keys = {
            name: (pattern, _xpath(use)) for name, (pattern, use) in sheet.keys.items()
        }
        if sheet.strip_space:
            strip = frozenset(sheet.strip_space)
            program.strips = (lambda name: True) if "*" in strip else strip.__contains__
        return program

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

    @staticmethod
    def writes_text_only(items: list) -> bool:
        """Whether a body of *items* writes nothing but text (text, ``xsl:text``,
        ``xsl:value-of``, and ``xsl:if``/``for-each``/``choose`` around such
        bodies), so it can run into a :class:`_Text`, not an OutputBuilder."""
        pending = list(items)
        while pending:
            item = pending.pop()
            local = None if isinstance(item, str) else _is_xsl(item) and _local(item)
            if local in ("if", "for-each", "when", "otherwise"):
                pending.extend(_body_items(item))
            elif local == "choose":
                pending.extend(c for c in item if _is_xsl(c, "when") or _is_xsl(c, "otherwise"))
            elif not (local is None or local in ("text", "value-of")):
                return False
        return True

    def value(self, elem: ET.Element) -> ValueFn:
        """The value of an xsl:variable / xsl:param / xsl:with-param:
        its ``select``, or its content as a result-tree fragment."""
        select = elem.get("select")
        if select is not None:
            expr = _xpath(select)
            return lambda tr, ctx: expr(ctx)
        items = _body_items(elem)
        if not items:
            return lambda tr, ctx: ""
        body = self.body(items)
        new_output = _Text if self.writes_text_only(items) else OutputBuilder

        def fragment(tr: "Transformer", ctx: Context) -> ResultTreeFragment:
            sub = new_output()
            body(tr, ctx, sub)
            return ResultTreeFragment(sub.finish())

        return fragment

    def with_params(self, elem: ET.Element) -> Callable[["Transformer", Context], Mapping[str, Any]]:
        """The ``xsl:with-param`` children of *elem*, collected into a
        mapping when it runs; any other child makes it raise instead."""
        for child in elem:
            if not _is_xsl(child, "with-param"):
                what = f"xsl:{_local(child)}" if _is_xsl(child) else child.tag
                return _raiser(
                    XsltError, f"unsupported instruction {what} in xsl:{_local(elem)}"
                )
        pairs = tuple((child.get("name") or None, self.value(child)) for child in elem)
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
        if elem.get("mode") is not None:
            return _raiser(XsltError, "unsupported attribute mode= on xsl:apply-templates")
        select = elem.get("select")
        selected = self.nodeset(select) if select is not None else None
        collect = self.with_params(elem)

        def apply_templates(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            nodes = selected(ctx) if selected is not None else ctx.doc.children(ctx.node)
            tr._apply_templates(nodes, collect(tr, ctx), ctx, out)

        return apply_templates

    def xsl_call_template(self, elem: ET.Element) -> Instruction:
        name = elem.get("name")
        template = self.named.get(name or "")
        if template is None:
            return _raiser(XsltError, f"no template named {name!r}")
        collect = self.with_params(elem)

        def call_template(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            tr._invoke(template, ctx.node, collect(tr, ctx), ctx.variables, out)

        return call_template

    def xsl_value_of(self, elem: ET.Element) -> Instruction:
        select = elem.get("select")
        if select is None:
            return _raiser(XsltError, "xsl:value-of requires select")
        expr = _xpath(select)
        return lambda tr, ctx, out: out.add_text(to_string(expr(ctx), ctx.doc))

    def xsl_for_each(self, elem: ET.Element) -> Instruction:
        select = elem.get("select")
        if select is None:
            return _raiser(XsltError, "xsl:for-each requires select")
        if any(_is_xsl(child, "sort") for child in elem):
            # raise even over an empty node-set, which never runs the body
            return _raiser(XsltError, "unsupported instruction xsl:sort")
        selected = self.nodeset(select)
        body = self.body(_body_items(elem))

        def for_each(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            nodes = selected(ctx)
            # one context for the whole node list, moved along it
            sub = Context(ctx.doc, ctx.variables, ctx.functions, ctx.node)
            for node in nodes:
                sub.node = node
                body(tr, sub, out)

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

    def xsl_attribute(self, elem: ET.Element) -> Instruction:
        name = elem.get("name")
        if not name:
            return _raiser(XsltError, "xsl:attribute requires name")
        name_of = _avt(name)
        items = _body_items(elem)
        body = self.body(items)
        new_output = _Text if self.writes_text_only(items) else OutputBuilder

        def attribute(tr: "Transformer", ctx: Context, out: OutputBuilder) -> None:
            sub = new_output()
            body(tr, ctx, sub)
            out.add_attribute(name_of(ctx), sub.string_value())

        return attribute

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


# ---------------------------------------------------------------------------
# Transformer
# ---------------------------------------------------------------------------

class Transformer:
    """Executes a :class:`Stylesheet` against a source document.

    Holds the state of one run; the lowered stylesheet it executes is
    shared.  Not itself thread-safe: use one per thread."""

    def __init__(self, stylesheet: Stylesheet) -> None:
        self.stylesheet = stylesheet
        self._key_tables: dict[str, dict[str, Any]] = {}
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
        if isinstance(source, XDocument):
            doc = source
            if program.strips is not None:
                _strip_space(doc, program.strips)
        else:
            doc = build_document(
                source, restore_prefixes=restore_prefixes, strips=program.strips
            )
        self._doc = doc
        try:
            out = OutputBuilder()
            scope = self._bind_globals(program, doc, dict(params or {}))
            root = Context(doc, scope, self._functions)
            self._apply_templates([0], _NO_PARAMS, root, out)
            return out.finish()
        finally:
            # the run's document and key tables go with the run
            self._doc, self._key_tables = None, {}

    # -- setup ----------------------------------------------------------------
    def _function_table(self) -> dict[str, Any]:
        fns = dict(CORE_FUNCTIONS)
        fns["key"] = self._fn_key
        fns["generate-id"] = self._fn_generate_id
        return fns

    def _key_table(self, name: str) -> dict[str, Any]:
        """Build (once per document) the hash table for xsl:key *name*:
        every node matching the key's pattern is indexed under each
        string produced by its ``use`` expression -- this is how real
        processors make id/idref joins linear.  A string one node has is
        kept as that int, and only a string of several as their list."""
        table = self._key_tables.get(name)
        if table is not None:
            return table
        assert self._program is not None and self._doc is not None
        declaration = self._program.keys.get(name)
        if declaration is None:
            raise XsltError(f"no xsl:key named {name!r}")
        table = {}
        for node, string in self._key_entries(self._doc, *declaration):
            hits = table.get(string)
            if hits is None:
                table[string] = node
            elif hits.__class__ is int:
                table[string] = [hits, node]
            else:
                hits.append(node)
        self._key_tables[name] = table
        return table

    def _key_entries(
        self, doc: XDocument, pattern: Pattern, use: Compiled
    ) -> Iterator[tuple[int, str]]:
        """(node, string) for each node *pattern* matches, in document
        order, once under each string *use* gives it."""
        attribute = getattr(use, "attribute", None)
        if attribute is not None:
            # use="@name": one pass over the attributes of that name, each
            # under its owner element when the pattern takes the owner
            names = doc.names
            for owner, string in doc.attributes_named(attribute):
                if pattern.key == "*" or names[owner] == pattern.key:
                    yield owner, string
            return
        # the pattern is its key: the document, every element, or one
        # name's elements straight from the name index
        if pattern.key == "*":
            candidates = [row for row, kind in enumerate(doc.kinds) if kind == ELEMENT]
        else:
            candidates = [0] if pattern.key == "/" else doc.index.get(pattern.key, [])
        at_node = Context(doc, {}, self._functions)
        for node in candidates:
            at_node.node = node
            value = use(at_node)
            if value.__class__ is list:  # once under a value, however many nodes yield it
                for string in dict.fromkeys([doc.string_value(hit) for hit in value]):
                    yield node, string
            else:
                yield node, to_string(value)

    def _fn_key(self, ctx: Context, name: Any, value: Any) -> list[int]:
        table = self._key_tables.get(name) if name.__class__ is str else None
        if table is None:
            table = self._key_table(to_string(name, ctx.doc))
        if value.__class__ is list:
            if len(value) != 1:  # a lookup per node, the hits merged in document order
                return sorted({hit for node in value for hit in self._fn_key(ctx, name, [node])})
            hits = table.get(ctx.doc.string_value(value[0]))
        else:
            hits = table.get(to_string(value, ctx.doc))
        if hits is None:
            return []
        return [hits] if hits.__class__ is int else hits[:]

    def _fn_generate_id(self, ctx: Context, *args: Any) -> str:
        if args:
            nodes = to_nodeset(args[0])
            if not nodes:
                return ""
            node = nodes[0]
        else:
            node = ctx.node
        return f"id{ctx.doc.number(node)}"

    def _bind_globals(
        self, program: _Program, doc: XDocument, params: dict[str, Any]
    ) -> _Scope:
        scope = _Scope(None)
        ctx = Context(doc, scope, self._functions)
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
        nodes: Sequence[int],
        with_params: Mapping[str, Any],
        ctx: Context,
        out: OutputBuilder,
    ) -> None:
        """Apply the winning template (or the built-in rule) to each of
        *nodes*; *ctx* is the caller's context, whose variables invoked
        templates can see."""
        program, doc = self._program, self._doc
        assert program is not None and doc is not None
        for node in nodes:
            template = program.match(doc, node)
            if template is None:
                self._builtin_rule(node, ctx, out)
            else:
                self._invoke(template, node, with_params, ctx.variables, out)

    def _builtin_rule(self, node: int, ctx: Context, out: OutputBuilder) -> None:
        doc = ctx.doc
        if node >= 0 and doc.kinds[node] != TEXT:  # the document or an element
            self._apply_templates(doc.children(node), _NO_PARAMS, ctx, out)
        else:
            out.add_text(doc.string_value(node))

    def _invoke(
        self,
        template: _Template,
        node: int,
        with_params: Mapping[str, Any],
        caller_scope: Mapping[str, Any],
        out: OutputBuilder,
    ) -> None:
        scope = _Scope(caller_scope)  # type: ignore[arg-type]
        ctx = Context(self._doc, scope, self._functions, node)  # type: ignore[arg-type]
        for name, default in template.params:
            if name is None:
                raise XsltError("xsl:param without name")
            scope[name] = with_params[name] if name in with_params else default(self, ctx)
        template.body(self, ctx, out)


def _strip_space(doc: XDocument, strips: Callable[[str], bool]) -> None:
    """xsl:strip-space for a document the caller built (``build_document``
    does it while building): a whitespace-only text child of an element
    *strips* names keeps its number and stops being a node."""
    kinds, values, names, parents = doc.kinds, doc.values, doc.names, doc.parents
    for row, kind in enumerate(kinds):
        if kind == TEXT and values[row].isspace() and strips(names[parents[row]]):  # type: ignore[union-attr]
            kinds[row], values[row] = STRIPPED, None
