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

Execution model: a :class:`Stylesheet` is *compiled* once (memoised on
the sheet, at its first transform) into one generated Python module --
a function per template, whose XSLT variables are Python locals and
whose XPath expressions are inline Python (:mod:`.xpath.evaluator`), a
function per ``xsl:key`` building its table, and ``run``, which binds
the globals and applies templates to the root through a dispatch table
keyed by pattern.  A :class:`Transformer` holds only the state of one
run (key tables, the source document), so concurrent transforms share
one compiled sheet.  Compiling never raises: a malformed or unsupported
instruction compiles to a ``raise`` of the same :class:`XsltError` (or
XPath syntax error) where it stands, so it raises the moment it is
executed, and not before.  A top-level declaration or template the
engine does not take raises when the sheet is loaded.
"""

from __future__ import annotations

import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

from .output import OutElement, OutputBuilder, OutputSettings, serialize
from .patterns import Pattern, compile_pattern
from .xpath.ast import LocationPath
from .xpath.datamodel import ELEMENT, STRIPPED, TEXT, XDocument, build_document
from .xpath.evaluator import (
    ANY,
    BOOLEAN,
    FRAGMENT,
    NODES,
    STRING,
    Module,
    Scope,
    XPathEvalError,
    compile_expr,
    convert,
    load,
    parse_lazily,
    typed,
)
from .xpath.functions import XPathTypeError, to_nodeset, to_string

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
        if len(self.top) == 1 and self.top[0].__class__ is str:
            return self.top[0]  # a text-only body's
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
        return ["".join(self)]

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

    # -- compiling ------------------------------------------------------------
    def compiled(self) -> "_Program":
        """The executable form of this sheet, compiled on first use and
        shared by every transform (and thread) after that."""
        program = self._program
        if program is None:
            with self._lower_lock:
                if self._program is None:
                    self._program = _Compiler(self).program()
                program = self._program
        return program


# ---------------------------------------------------------------------------
# Compiling: stylesheet -> one Python module
# ---------------------------------------------------------------------------

_NO_PARAMS: Mapping[str, Any] = {}


def nodeset_for(value: Any, select: str) -> list:
    """What an instruction selects, which must be a node-set."""
    try:
        return to_nodeset(value)
    except XPathTypeError as exc:
        raise XPathEvalError(f"{select} did not yield a node-set: {exc}") from exc


#: what the generated module finds besides the XPath runtime
_NAMES = {
    "OutputBuilder": OutputBuilder, "ResultTreeFragment": ResultTreeFragment,
    "Text": _Text, "NO_PARAMS": _NO_PARAMS, "XsltError": XsltError, "nodeset_for": nodeset_for,
}

#: template dispatch and the built-in rules
_APPLY = """\
def apply(nodes, out, P):
    for m in nodes:
        t = None
        if m >= 0:
            kind = kinds[m]
            if kind == 1:
                t = D.get(names[m], STAR)
            elif kind == 0:
                t = ROOT
        if t is not None:
            invoke(t, m, out, P)
        elif m >= 0 and kinds[m] != 2:
            apply(children(m), out, NO_PARAMS)
        else:
            out.add_text(sv(m))
"""

@dataclass(frozen=True)
class _Program:
    """What compiling a :class:`Stylesheet` produces.  Immutable;
    everything a run mutates lives on the :class:`Transformer`."""

    source: str  #: the generated module's text
    run: Callable  #: ``run(transformer, doc, params, out)``: one transform
    templates: tuple[TemplateRule, ...]  #: the generated ``t{i}`` is the i-th
    #: whether whitespace-only text under an element of that name goes
    strips: Optional[Callable[[str], bool]]


class _Compiler:
    """Writes the module of one stylesheet: a function ``t{i}(n, out,
    P)`` per template (context node, output, with-params), one per
    location path and per ``xsl:key``'s ``use`` expression, and
    ``run``, which binds the globals and applies templates to the root.
    XSLT variables are Python locals.  Compiling never raises: an
    instruction that cannot run compiles to a ``raise`` of the error it
    stands for, where it stands."""

    def __init__(self, sheet: Stylesheet) -> None:
        self.sheet = sheet
        self.module = Module(xslt=True)
        # a template with both match= and name= is one function
        rules = {id(rule): rule for rule in (*sheet.rules, *sheet.named.values())}
        self.templates = tuple(rules.values())
        self.number = {key: i for i, key in enumerate(rules)}

    # -- the whole sheet ----------------------------------------------------
    def program(self) -> _Program:
        sheet = self.sheet
        for i, rule in enumerate(self.templates):
            self.template(i, rule)
        keys = ", ".join(f"{name!r}: {self.key(*declared)}" for name, declared in sheet.keys.items())
        dispatch = {rule.pattern.key: f"t{self.number[id(rule)]}" for rule in sheet.rules}  # type: ignore[union-attr]
        table = ", ".join(f"{k!r}: {t}" for k, t in dispatch.items() if k not in ("*", "/"))
        lines = [
            "key, invoke = R._key, R._invoke",
            f"D, STAR, ROOT = {{{table}}}, {dispatch.get('*')}, {dispatch.get('/')}",
            *_APPLY.splitlines(),
            f"R._builders = {{{keys}}}",
            "try:",
            "    G = {}",
        ]
        sc = Scope(self.module, "0", "G", counter=[0])
        for elem in sheet.globals:
            name = elem.get("name")
            if not name:
                _raise(lines, 1, "top-level variable/param without name")
                break
            depth = 1
            if _local(elem) == "param":
                lines += [f"    if {name!r} in P:", f"        G[{name!r}] = P[{name!r}]", "    else:"]
                depth = 2
            self.assign(elem, sc, f"G[{name!r}]", lines, depth)
        # a param no xsl:param declares is still visible
        lines += ["    for name, value in P.items():", "        G.setdefault(name, value)"]
        lines += ["    apply([0], out, NO_PARAMS)", "finally:"]
        # the functions refer to each other and to the document: a cycle,
        # broken here so that the document goes by reference count
        names = ", ".join([*self.module.functions, "apply", "D", "STAR", "ROOT", "key", "invoke"])
        lines.append(f"    del {names}")
        source = self.module.source("run(R, doc, P, out)", lines)
        strips = None
        if sheet.strip_space:
            strip = frozenset(sheet.strip_space)
            strips = (lambda name: True) if "*" in strip else strip.__contains__
        return _Program(source, load(source, "run", "<stylesheet>", _NAMES), self.templates, strips)

    def template(self, i: int, rule: TemplateRule) -> None:
        sc = Scope(self.module, "n", "G")
        lines = [f"def t{i}(n, out, P):"]
        for elem in rule.params:
            name = elem.get("name")
            if not name:
                _raise(lines, 1, "xsl:param without name")
                break
            var = sc.fresh("v")
            select = elem.get("select")
            if select is not None:
                default = compile_expr(parse_lazily(select), sc)[0]
                lines.append(f"    {var} = P[{name!r}] if {name!r} in P else {default}")
            else:
                lines += [f"    if {name!r} in P:", f"        {var} = P[{name!r}]", "    else:"]
                self.assign(elem, sc, var, lines, 2)
            sc.vars[name] = (var, ANY)
        self.body(rule.body, sc, "out", lines, 1)
        self.module.functions.append(f"t{i}")
        self.module.defs.append("\n".join(lines))

    def key(self, pattern: Pattern, use: str) -> str:
        """An xsl:key as (pattern key, attribute, use function): the
        table of ``use="@name"`` is built from the attribute lists, and
        any other ``use`` compiles to a function of one matched node."""
        expr = parse_lazily(use)
        path = isinstance(expr, LocationPath) and not expr.absolute and len(expr.steps) == 1
        step = expr.steps[0] if path else None  # type: ignore[attr-defined]
        if step and step.axis == "attribute" and step.node_test != "*" and not step.predicates:
            return f"({pattern.key!r}, {step.node_test!r}, None)"
        # variables are not in scope in a key's use=
        code, kind = compile_expr(expr, Scope(self.module, "c", "NO_PARAMS"))
        if kind not in (NODES, STRING, ANY):
            code = convert(code, kind, STRING)
        return f"({pattern.key!r}, None, {self.module.define('u', 'c', [f'    return {code}'])})"

    # -- bodies ---------------------------------------------------------------
    def body(self, items: list, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        """Instructions writing to *out*; variables they declare end
        with the body."""
        sc = sc.child()
        pad, mark = "    " * depth, len(lines)
        declared: set[str] = set()
        for item in items:
            if isinstance(item, str):
                lines.append(f"{pad}{out}.add_text({item!r})")
                continue
            name = item.get("name")
            if _is_xsl(item, "param") and name in declared:
                continue  # a stray body-level param only defaults a name not yet bound here
            self.instruction(item, sc, out, lines, depth)
            if (_is_xsl(item, "variable") or _is_xsl(item, "param")) and name:
                declared.add(name)
        if len(lines) == mark:
            lines.append(f"{pad}pass")

    def instruction(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        if not _is_xsl(elem):
            return self.literal_element(elem, sc, out, lines, depth)
        name = _local(elem)
        write = getattr(self, "xsl_" + name.replace("-", "_"), None)
        if write is None:
            return _raise(lines, depth, f"unsupported instruction xsl:{name}")
        return write(elem, sc, out, lines, depth)

    @staticmethod
    def writes_text_only(items: list) -> bool:
        """Whether a body of *items* writes nothing but text (text, ``xsl:text``,
        ``xsl:value-of``, and ``xsl:if``/``for-each``/``choose`` around such
        bodies), so it can write into a :class:`_Text`, not an OutputBuilder."""
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

    def assign(self, elem: ET.Element, sc: Scope, target: str, lines: list[str], depth: int) -> str:
        """Statements setting *target* to the value of an xsl:variable /
        xsl:param / xsl:with-param: its ``select``, or its content as a
        result-tree fragment.  Returns the value's type."""
        pad = "    " * depth
        select = elem.get("select")
        if select is not None:
            code, kind = compile_expr(parse_lazily(select), sc)
            lines.append(f"{pad}{target} = {code}")
            return kind
        items = _body_items(elem)
        if not items:
            lines.append(f"{pad}{target} = ''")
            return STRING
        sub = sc.fresh("o")
        lines.append(f"{pad}{sub} = {'Text' if self.writes_text_only(items) else 'OutputBuilder'}()")
        self.body(items, sc, sub, lines, depth)
        lines.append(f"{pad}{target} = ResultTreeFragment({sub}.finish())")
        return FRAGMENT

    def with_params(self, elem: ET.Element, sc: Scope, lines: list[str], depth: int) -> str:
        """The ``xsl:with-param`` children of *elem* as a dict expression,
        after the statements that compute them; any other child compiles
        to a raise."""
        for child in elem:
            if not _is_xsl(child, "with-param"):
                what = f"xsl:{_local(child)}" if _is_xsl(child) else child.tag
                _raise(lines, depth, f"unsupported instruction {what} in xsl:{_local(elem)}")
                return "NO_PARAMS"
        pairs = []
        for child in elem:
            name = child.get("name")
            if not name:
                _raise(lines, depth, "xsl:with-param without name")
                break
            value = sc.fresh("w")
            self.assign(child, sc, value, lines, depth)
            pairs.append(f"{name!r}: {value}")
        return f"{{{', '.join(pairs)}}}" if pairs else "NO_PARAMS"

    def selected(self, select: str, sc: Scope) -> str:
        """``select`` compiled for an instruction that needs a node-set."""
        code, kind = compile_expr(parse_lazily(select), sc)
        return code if kind == NODES else f"nodeset_for({code}, {select!r})"

    def avt(self, value: str, sc: Scope) -> str:
        """An attribute value template as a string expression."""
        try:
            chunks = _split_avt(value)
        except XsltError as exc:
            return f"fail(XsltError, *{exc.args!r})"
        parts = [typed(parse_lazily(text), sc, STRING) if is_expr else repr(text) for is_expr, text in chunks]
        return " + ".join(parts) if parts else "''"

    # -- literal result elements ------------------------------------------------
    def literal_element(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        # Namespaced names outside the XSL namespace are emitted with
        # their local name (we do not do namespace fixup).
        pad = "    " * depth
        start = f"{out}.start_element({elem.tag.rpartition('}')[2]!r})"
        if elem.attrib:
            # the element is still empty, so attributes go straight in
            lines.append(f"{pad}into = {start}.attributes")
            for key, value in elem.attrib.items():
                lines.append(f"{pad}into[{key.rpartition('}')[2]!r}] = {self.avt(value, sc)}")
        else:
            lines.append(pad + start)
        self.body(_body_items(elem), sc, out, lines, depth)
        lines.append(f"{pad}{out}.end_element()")

    # -- instructions -------------------------------------------------------------
    def xsl_apply_templates(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        if elem.get("mode") is not None:
            return _raise(lines, depth, "unsupported attribute mode= on xsl:apply-templates")
        select = elem.get("select")
        nodes = self.selected(select, sc) if select is not None else f"children({sc.node})"
        if len(elem):  # the nodes are selected before the params are
            selected, nodes = nodes, sc.fresh("s")
            lines.append(f"{'    ' * depth}{nodes} = {selected}")
        params = self.with_params(elem, sc, lines, depth)
        lines.append(f"{'    ' * depth}apply({nodes}, {out}, {params})")

    def xsl_call_template(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        name = elem.get("name")
        rule = self.sheet.named.get(name or "")
        if rule is None:
            return _raise(lines, depth, f"no template named {name!r}")
        params = self.with_params(elem, sc, lines, depth)
        lines.append(f"{'    ' * depth}invoke(t{self.number[id(rule)]}, {sc.node}, {out}, {params})")

    def xsl_value_of(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        select = elem.get("select")
        if select is None:
            return _raise(lines, depth, "xsl:value-of requires select")
        lines.append(f"{'    ' * depth}{out}.add_text({typed(parse_lazily(select), sc, STRING)})")

    def xsl_for_each(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        select = elem.get("select")
        if select is None:
            return _raise(lines, depth, "xsl:for-each requires select")
        if any(_is_xsl(child, "sort") for child in elem):
            # raise even over an empty node-set, which never runs the body
            return _raise(lines, depth, "unsupported instruction xsl:sort")
        node = sc.fresh("n")
        lines.append(f"{'    ' * depth}for {node} in {self.selected(select, sc)}:")
        self.body(_body_items(elem), sc.at(node), out, lines, depth + 1)

    def xsl_if(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        test = elem.get("test")
        if test is None:
            return _raise(lines, depth, "xsl:if requires test")
        lines.append(f"{'    ' * depth}if {typed(parse_lazily(test), sc, BOOLEAN)}:")
        self.body(_body_items(elem), sc, out, lines, depth + 1)

    def xsl_choose(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        keyword = "if"
        for child in elem:
            if _is_xsl(child, "when"):
                test = child.get("test")
                condition = (
                    typed(parse_lazily(test), sc, BOOLEAN)
                    if test is not None
                    else "fail(XsltError, 'xsl:when requires test')"
                )
                lines.append(f"{'    ' * depth}{keyword} {condition}:")
            elif _is_xsl(child, "otherwise"):
                lines.append(f"{'    ' * depth}{'else' if keyword == 'elif' else 'if True'}:")
            else:
                continue
            self.body(_body_items(child), sc, out, lines, depth + 1)
            if _is_xsl(child, "otherwise"):
                break  # nothing after xsl:otherwise is ever reached
            keyword = "elif"

    def xsl_text(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        if elem.text:
            lines.append(f"{'    ' * depth}{out}.add_text({elem.text!r})")

    def xsl_attribute(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        name = elem.get("name")
        if not name:
            return _raise(lines, depth, "xsl:attribute requires name")
        pad, items = "    " * depth, _body_items(elem)
        select = items[0].get("select") if len(items) == 1 and not isinstance(items[0], str) else None
        if select is not None and _is_xsl(items[0], "value-of") and not {"{", "}"} & set(name):
            value = typed(parse_lazily(select), sc, STRING)
            lines.append(f"{pad}{out}.add_attribute({self.avt(name, sc)}, {value})")
            return
        sub = sc.fresh("o")
        lines.append(f"{pad}{sub} = {'Text' if self.writes_text_only(items) else 'OutputBuilder'}()")
        self.body(items, sc, sub, lines, depth)
        lines.append(f"{pad}{out}.add_attribute({self.avt(name, sc)}, {sub}.string_value())")

    def xsl_variable(self, elem: ET.Element, sc: Scope, out: str, lines: list[str], depth: int) -> None:
        name = elem.get("name")
        if not name:
            return _raise(lines, depth, f"xsl:{_local(elem)} requires name")
        var = sc.fresh("v")
        kind = self.assign(elem, sc, var, lines, depth)
        sc.vars[name] = (var, kind)  # in scope after its own value

    # a stray body-level param acts as a defaulted variable (see body())
    xsl_param = xsl_variable


def _raise(lines: list[str], depth: int, message: str) -> None:
    lines.append(f"{'    ' * depth}raise XsltError({message!r})")


# ---------------------------------------------------------------------------
# Transformer
# ---------------------------------------------------------------------------

class Transformer:
    """Executes a :class:`Stylesheet` against a source document.

    Holds the state of one run; the compiled stylesheet it executes is
    shared.  Not itself thread-safe: use one per thread."""

    def __init__(self, stylesheet: Stylesheet) -> None:
        self.stylesheet = stylesheet
        self._doc: Optional[XDocument] = None
        #: per xsl:key of this run: its table once built, and its
        #: (pattern key, attribute of ``use="@name"``, ``use`` function)
        self._key_tables: dict[str, dict[str, Any]] = {}
        self._builders: dict[str, tuple[str, Optional[str], Any]] = {}

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
        program = self.stylesheet.compiled()
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
            program.run(self, doc, dict(params or {}), out)
            return out.finish()
        finally:
            # the run's document and key tables go with the run
            self._doc, self._key_tables, self._builders = None, {}, {}

    # -- what the compiled sheet calls -----------------------------------------
    def _invoke(self, template: Callable, node: int, out: OutputBuilder, params: Mapping[str, Any]) -> None:
        """Every template invocation, matched or called by name."""
        template(node, out, params)

    def _key(self, name: str, value: Any) -> list[int]:
        """``key(name, value)``: every lookup.  A node-set value looks up
        each node's string, the hits merged in document order."""
        table = self._key_tables.get(name)
        if table is None:
            table = self._key_table(name)
        if value.__class__ is list:
            if len(value) != 1:
                return sorted({hit for node in value for hit in self._key(name, [node])})
            value = self._doc.string_value(value[0])  # type: ignore[union-attr]
        elif value.__class__ is not str:
            value = to_string(value, self._doc)
        hits = table.get(value)
        if hits is None:
            return []
        return [hits] if hits.__class__ is int else hits

    def _key_table(self, name: str) -> dict[str, Any]:
        """Build (once per document) the hash table for xsl:key *name*:
        every node matching the key's pattern is indexed under each
        string produced by its ``use`` expression -- this is how real
        processors make id/idref joins linear.  A string one node has is
        kept as that int, and only a string of several as their list."""
        declared = self._builders.get(name)
        if declared is None:
            raise XsltError(f"no xsl:key named {name!r}")
        match, attribute, use = declared
        doc: Any = self._doc
        if attribute is not None and match == "*":
            # one pass over the attributes of that name, each under its owner
            entries: Any = doc.attributes_named(attribute)
        else:
            if match == "*":
                rows: Any = [row for row, kind in enumerate(doc.kinds) if kind == ELEMENT]
            else:
                rows = [0] if match == "/" else doc.index.get(match, ())
            if attribute is None:
                entries = [(c, s) for c in rows for s in _strings(use(c), doc)]
            else:  # the attribute of each of the pattern's rows
                values = doc.attr_values
                entries = [(c, values[a]) for c in rows if (a := doc.attribute(c, attribute)) is not None]
        table: dict[str, Any] = {}
        for node, string in entries:
            hits = table.get(string)
            if hits is None:
                table[string] = node
            elif hits.__class__ is int:
                table[string] = [hits, node]
            else:
                hits.append(node)
        self._key_tables[name] = table
        return table


def _strings(value: Any, doc: XDocument) -> Any:
    """The strings a key's ``use`` gives one node: a node-set's, once
    each, in document order."""
    if value.__class__ is list:
        return dict.fromkeys(map(doc.string_value, value))
    return (value if value.__class__ is str else to_string(value),)


def _strip_space(doc: XDocument, strips: Callable[[str], bool]) -> None:
    """xsl:strip-space for a document the caller built (``build_document``
    does it while building): a whitespace-only text child of an element
    *strips* names keeps its number and stops being a node."""
    kinds, values, names, parents = doc.kinds, doc.values, doc.names, doc.parents
    row = kinds.find(TEXT)
    while row >= 0:
        if values[row].isspace() and strips(names[parents[row]]):  # type: ignore[union-attr]
            kinds[row], values[row] = STRIPPED, None
        row = kinds.find(TEXT, row + 1)
