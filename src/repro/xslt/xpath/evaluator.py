"""Compiler and runtime for the XPath subset ``xmi2cnx.xsl`` uses.

Values follow the four XPath types:

* node-set  -> ``list[int]`` (a node is an int, see
  :mod:`~repro.xslt.xpath.datamodel`) in document order, duplicate-free
* boolean   -> ``bool``
* number    -> ``float``
* string    -> ``str``

An expression compiles to Python source: one Python expression, typed
where the syntax fixes the type, so ``concat(@a, '|')`` is a string
concatenation and ``$n + 1`` a float addition with no coercion at run
time.  A location path becomes a function of its own in the generated
module: one loop per step over the document's flat lists (``ends``
from child to child, ``alphas`` into the attribute lists, a bisect of
the name index for ``//Name``), returning the node list -- or, where
only the first node's string or whether there is any node is wanted,
returning at the first hit.  :class:`Module` collects that source; the
XSLT engine compiles a whole stylesheet into one, and :func:`compile`
one expression.

An expression that parses always compiles: anything the subset cannot
evaluate compiles to a call of :func:`fail`, which raises
:class:`XPathEvalError` (or the error it stands for) when, and only
when, it is reached.

:func:`evaluate` is ``compile(expr)(context)``.
"""

from __future__ import annotations

import builtins
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .ast import (
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    PathExpr,
    StringLiteral,
    VariableRef,
)
from .datamodel import XDocument
from .functions import (
    ARITY,
    XPathTypeError,
    number_to_string,
    substring,
    to_boolean,
    to_nodeset,
    to_number,
    to_string,
)
from .lexer import XPathLexError
from .parser import DESCENDANT_SKIP, XPathSyntaxError, parse

__all__ = ["Context", "XPathEvalError", "compile", "evaluate"]


class XPathEvalError(ValueError):
    """Raised for runtime evaluation failures (unknown variable/function)."""


@dataclass(slots=True)
class Context:
    """Evaluation context: the document, the variables, and the context
    node (the document node unless given)."""

    doc: XDocument
    variables: Mapping[str, Any] = field(default_factory=dict)
    node: int = 0


#: a compiled expression
Compiled = Callable[[Context], Any]

#: the static type of a compiled expression; ANY is known only at run
#: time, FRAGMENT is an XSLT result-tree fragment
NODES, STRING, NUMBER, BOOLEAN, ANY, FRAGMENT = (
    "nodes", "string", "number", "boolean", "any", "fragment"
)


# ---------------------------------------------------------------------------
# Runtime: what generated code calls
# ---------------------------------------------------------------------------

def fail(error: type[Exception], *args: Any) -> Any:
    """Raise *error*: the compiled form of what cannot be evaluated."""
    raise error(*args)


def variable(scope: Mapping[str, Any], name: str) -> Any:
    try:
        return scope[name]
    except KeyError:
        raise XPathEvalError(f"unbound variable ${name}") from None


def keep(value: Any) -> bool:
    """A predicate's value as a keep/drop decision."""
    if value.__class__ is bool:
        return value
    if isinstance(value, (int, float)):  # [$n] is [position() = $n]
        raise XPathEvalError("unsupported predicate: a number other than a literal [n]")
    return to_boolean(value)


def nth(nodes: list, index: int) -> list:
    """``[k]`` over a whole node-set, *index* being k - 1."""
    return [nodes[index]] if 0 <= index < len(nodes) else []


def first(doc: XDocument, nodes: list) -> str:
    """A node-set's string: its first node's."""
    return doc.string_value(nodes[0]) if nodes else ""


def name_of(doc: XDocument, nodes: list) -> str:
    return doc.name(nodes[0]) if nodes else ""


def generate_id(doc: XDocument, nodes: list) -> str:
    return f"id{doc.number(nodes[0])}" if nodes else ""


def compare(op: str, left: Any, right: Any, doc: XDocument) -> bool:
    """``=`` or ``>`` by XPath 3.4: node-sets compare existentially,
    except against booleans, where the whole set converts via boolean()."""
    if op == "=" and (isinstance(left, bool) or isinstance(right, bool)):
        return to_boolean(left) == to_boolean(right)
    string_value = doc.string_value
    if isinstance(left, list) and isinstance(right, list):
        rvals = [string_value(n) for n in right]
        return any(_compare_atomic(op, string_value(n), rval) for n in left for rval in rvals)
    if isinstance(left, list):
        return any(_compare_atomic(op, _coerce_for(right, string_value(n)), right) for n in left)
    if isinstance(right, list):
        return any(_compare_atomic(op, left, _coerce_for(left, string_value(n))) for n in right)
    return _compare_atomic(op, left, right)


def equals(value: Any, literal: str, doc: XDocument) -> bool:
    """``value = 'literal'``."""
    if value.__class__ is str:
        return value == literal
    if value.__class__ is list:
        return any(doc.string_value(node) == literal for node in value)
    return compare("=", value, literal, doc)


def _coerce_for(other: Any, string_value: str) -> Any:
    """Convert a node's string-value to the type dictated by *other*."""
    if isinstance(other, (int, float)) and not isinstance(other, bool):
        return to_number(string_value)
    return string_value


def _compare_atomic(op: str, left: Any, right: Any) -> bool:
    if op == ">":
        return to_number(left) > to_number(right)  # a NaN compares false
    if isinstance(left, bool) or isinstance(right, bool):
        return to_boolean(left) == to_boolean(right)
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        return to_number(left) == to_number(right)
    return to_string(left) == to_string(right)


#: the names generated code finds in its module, besides its own
RUNTIME: dict[str, Any] = {
    "compare": compare, "equals": equals, "fail": fail, "first": first,
    "generate_id": generate_id, "keep": keep, "name_of": name_of, "nth": nth,
    "number_to_string": number_to_string, "substring": substring, "to_boolean": to_boolean,
    "to_nodeset": to_nodeset, "to_number": to_number, "to_string": to_string,
    "variable": variable, "XPathEvalError": XPathEvalError, "XPathLexError": XPathLexError,
    "XPathSyntaxError": XPathSyntaxError, "XPathTypeError": XPathTypeError,
}

#: how a generated module's outermost function begins: the document's
#: lists and methods as its locals
PROLOGUE = """\
kinds, names, parents, ends, alphas = doc.kinds, doc.names, doc.parents, doc.ends, doc.alphas
attr_names, attr_values, NA = doc.attr_names, doc.attr_values, len(doc.attr_names)
sv, node_name, owner, number = doc.string_value, doc.name, doc._owner, doc.number
children, descendants, named = doc.children, doc.descendants, doc.descendants_named"""


def load(source: str, entry: str, filename: str, names: Mapping[str, Any]) -> Callable:
    """Compile the generated *source* and return its function *entry*."""
    namespace = {**RUNTIME, **names}
    exec(builtins.compile(source, filename, "exec"), namespace)
    return namespace[entry]


# ---------------------------------------------------------------------------
# The generated module and the scope an expression compiles in
# ---------------------------------------------------------------------------

class Failure(Expr):
    """Where an expression would be: the error parsing it raised, to be
    raised again when the expression is reached."""

    __slots__ = ("error", "args")

    def __init__(self, error: Exception) -> None:
        self.error, self.args = type(error).__name__, error.args


def parse_lazily(source: str) -> Expr:
    """*source* parsed, or the :class:`Failure` that raises its error."""
    try:
        return parse(source)
    except (XPathLexError, XPathSyntaxError) as exc:
        return Failure(exc)


class Module:
    """The source of one generated module, as it is written: the
    functions defined inside its outermost one, each distinct body
    once.  *xslt* makes ``key()`` and ``generate-id()`` known."""

    def __init__(self, *, xslt: bool) -> None:
        self.xslt = xslt
        self.defs: list[str] = []
        #: the name of every function defined
        self.functions: list[str] = []
        self._names: dict[str, str] = {}

    def define(self, prefix: str, params: str, lines: list[str]) -> str:
        """The name of a function with *params* and body *lines*."""
        text = f"({params}):\n" + "\n".join(lines)
        name = self._names.get(text)
        if name is None:
            name = self._names[text] = f"{prefix}{len(self.functions)}"
            self.functions.append(name)
            self.defs.append(f"def {name}{text}")
        return name

    def source(self, signature: str, lines: list[str]) -> str:
        """The module: ``def signature:``, the prologue, the functions
        defined so far, then *lines*."""
        body = "\n".join([PROLOGUE, *self.defs, *lines])
        return f"def {signature}:\n" + "".join(
            f"    {line}\n" if line else "\n" for line in body.split("\n")
        )


class Scope:
    """What an expression compiles against: the Python name of the
    context node, the variables in lexical scope (XSLT name -> Python
    name and type), and where any other variable is looked up.  A
    location path's function takes the lexical variables its predicates
    read as parameters: *captures* lists them, for each enclosing one."""

    __slots__ = ("module", "node", "vars", "fallback", "captures", "counter")

    def __init__(self, module: Module, node: str, fallback: str, variables: Optional[dict] = None,
                 captures: tuple[list[str], ...] = (), counter: Optional[list[int]] = None) -> None:
        self.module, self.node, self.fallback, self.captures = module, node, fallback, captures
        self.vars: dict[str, tuple[str, str]] = {} if variables is None else variables
        self.counter = [0] if counter is None else counter

    def at(self, node: str) -> "Scope":
        return Scope(self.module, node, self.fallback, self.vars, self.captures, self.counter)

    def child(self) -> "Scope":
        """A scope whose declarations end with it."""
        return Scope(self.module, self.node, self.fallback, dict(self.vars), self.captures, self.counter)

    def fresh(self, prefix: str) -> str:
        self.counter[0] += 1
        return f"{prefix}{self.counter[0]}"

    def lookup(self, name: str) -> tuple[str, str]:
        hit = self.vars.get(name)
        if hit is None:
            return f"variable({self.fallback}, {name!r})", ANY
        for captured in self.captures:
            if hit[0] not in captured:
                captured.append(hit[0])
        return hit


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_TO_STRING = {
    NODES: "first(doc, {})", NUMBER: "number_to_string({})", FRAGMENT: "{}.string_value()",
    BOOLEAN: "('true' if {} else 'false')",
}
_TO_NUMBER = {
    STRING: "to_number({})", NODES: "to_number(first(doc, {}))", BOOLEAN: "(1.0 if {} else 0.0)",
    FRAGMENT: "to_number({}.string_value())",
}
_TO_BOOLEAN = {NODES: "(len({}) > 0)", STRING: "({} != '')"}


def convert(code: str, kind: str, want: str) -> str:
    """*code* of type *kind* as a value of type *want*."""
    if kind == want:
        return code
    if want == STRING:
        return _TO_STRING.get(kind, "to_string({}, doc)").format(code)
    if want == NUMBER:
        return _TO_NUMBER.get(kind, "to_number({}, doc)").format(code)
    if want == BOOLEAN:
        return _TO_BOOLEAN.get(kind, "to_boolean({})").format(code)
    return f"to_nodeset({code})"


def _is_path(expr: Expr) -> bool:
    return (isinstance(expr, LocationPath) and bool(expr.steps)) or isinstance(expr, PathExpr)


def typed(expr: Expr, sc: Scope, want: str) -> str:
    """*expr* compiled to a value of type *want*: a path wanted as a
    string or a boolean stops at its first node."""
    if want in (STRING, BOOLEAN) and _is_path(expr):
        return _path_of(expr, sc, "string" if want == STRING else "exists")
    if want == NUMBER and _is_path(expr):
        return f"to_number({_path_of(expr, sc, 'string')})"
    return convert(*compile_expr(expr, sc), want)


def condition(expr: Expr, sc: Scope) -> str:
    """A predicate, as the condition of an ``if``."""
    if _is_path(expr):
        return _path_of(expr, sc, "exists")
    code, kind = compile_expr(expr, sc)
    return code if kind in (BOOLEAN, NODES, STRING) else f"keep({code})"


def compile_expr(expr: Expr, sc: Scope) -> tuple[str, str]:
    """*expr* as (Python expression, static type)."""
    kind = type(expr)
    if kind is NumberLiteral or kind is StringLiteral:
        return repr(expr.value), NUMBER if kind is NumberLiteral else STRING  # type: ignore[attr-defined]
    if kind is VariableRef:
        return sc.lookup(expr.name)  # type: ignore[attr-defined]
    if kind is FunctionCall:
        return _call(expr, sc)  # type: ignore[arg-type]
    if kind is BinaryOp:
        return _binary(expr, sc), BOOLEAN if expr.op in ("or", "=", ">") else NUMBER  # type: ignore[attr-defined]
    if kind is LocationPath:
        return (_path_of(expr, sc, "list") if expr.steps else "[0]"), NODES  # type: ignore[attr-defined]
    if kind is FilterExpr:
        code = typed(expr.primary, sc, NODES)  # type: ignore[attr-defined]
        for pred in expr.predicates:  # type: ignore[attr-defined]
            if isinstance(pred, NumberLiteral):
                index = int(pred.value) - 1 if pred.value.is_integer() else -1
                code = f"nth({code}, {index})"
            else:
                m = sc.fresh("m")
                code = f"[{m} for {m} in {code} if {condition(pred, sc.at(m))}]"
        return code, NODES
    if kind is PathExpr:
        return _path_of(expr, sc, "list"), NODES
    return f"fail({expr.error}, *{expr.args!r})", ANY  # type: ignore[attr-defined]


def _call(expr: FunctionCall, sc: Scope) -> tuple[str, str]:
    """A call to one of the functions the subset knows, inline; a call
    outside its function's :data:`ARITY`, or to any other name, raises
    when it is reached (before its arguments are evaluated)."""
    name, args = expr.name, expr.args
    least, most = ARITY.get(name, (len(args), len(args)))
    if len(args) < least or (most is not None and len(args) > most):
        takes = f"{least} or more" if most is None else f"{least} or {most}" if most > least else str(least)
        message = f"{name}() takes {takes} argument{'' if takes == '1' else 's'}"
        return f"fail(XPathEvalError, {message!r})", ANY
    if name not in ARITY or (name in ("key", "generate-id") and not sc.module.xslt):
        return f"fail(XPathEvalError, {f'unknown function {name}()'!r})", ANY
    if name == "concat":
        return "(" + " + ".join(typed(arg, sc, STRING) for arg in args) + ")", STRING
    if name == "not":
        return f"(not {typed(args[0], sc, BOOLEAN)})", BOOLEAN
    if name == "string-length":
        text = typed(args[0], sc, STRING) if args else f"sv({sc.node})"
        return f"float(len({text}))", NUMBER
    if name == "substring":
        text, *numbers = (typed(arg, sc, STRING if i == 0 else NUMBER) for i, arg in enumerate(args))
        return f"substring({text}, {', '.join(numbers)})", STRING
    if name == "name":
        return (f"name_of(doc, {typed(args[0], sc, NODES)})" if args else f"node_name({sc.node})"), STRING
    if name == "generate-id":
        if not args:
            return f"f'id{{number({sc.node})}}'", STRING
        if _is_path(args[0]):
            return _path_of(args[0], sc, "id"), STRING
        return f"generate_id(doc, {typed(args[0], sc, NODES)})", STRING
    # key(): the value goes as it is, a node-set looked up node by node
    value, kind = compile_expr(args[1], sc)
    if kind not in (NODES, STRING, ANY):
        value = convert(value, kind, STRING)
    return f"key({typed(args[0], sc, STRING)}, {value})", NODES


def _binary(expr: BinaryOp, sc: Scope) -> str:
    op, left, right = expr.op, expr.left, expr.right
    if op == "or":
        return f"({typed(left, sc, BOOLEAN)} or {typed(right, sc, BOOLEAN)})"
    if op in ("+", "-"):
        return f"({typed(left, sc, NUMBER)} {op} {typed(right, sc, NUMBER)})"
    if op == "=" and isinstance(left, StringLiteral) != isinstance(right, StringLiteral):
        literal, other = (left.value, right) if isinstance(left, StringLiteral) else (right.value, left)  # type: ignore[attr-defined]
        if _is_path(other):
            return _path_of(other, sc, "equals", literal)
        code, kind = compile_expr(other, sc)
        if kind in (STRING, FRAGMENT):
            return f"({convert(code, kind, STRING)} == {literal!r})"
        return f"equals({code}, {literal!r}, doc)"
    (lcode, lkind), (rcode, rkind) = compile_expr(left, sc), compile_expr(right, sc)
    if lkind in (NODES, ANY) or rkind in (NODES, ANY):
        return f"compare({op!r}, {lcode}, {rcode}, doc)"
    # two atomic values (a fragment compares as its string)
    if op == ">":
        want = NUMBER
    else:
        kinds = (lkind, rkind)
        want = BOOLEAN if BOOLEAN in kinds else NUMBER if NUMBER in kinds else STRING
    return f"({convert(lcode, lkind, want)} {'>' if op == '>' else '=='} {convert(rcode, rkind, want)})"


# ---------------------------------------------------------------------------
# Location paths: one function per path, one loop per step
# ---------------------------------------------------------------------------

def _by_index(steps: tuple, i: int) -> bool:
    """Whether steps *i*, *i* + 1 are ``//Name`` with no ``[k]``: a
    bisect of the name index.  (A ``[k]`` counts per parent, so that
    form runs as the two steps it abbreviates.)"""
    return (
        steps[i] == DESCENDANT_SKIP
        and i + 1 < len(steps)
        and steps[i + 1].axis == "child"
        and steps[i + 1].node_test != "*"
        and not any(isinstance(p, NumberLiteral) for p in steps[i + 1].predicates)
    )


def _order(steps: tuple, from_list: bool) -> tuple[bool, bool]:
    """Whether the loops over *steps* meet the nodes in document order,
    and each once.  A set of nodes none of which contains another
    ("flat") keeps both under a child step; a parent step from several
    nodes, or a step under a ``//``, may lose them."""
    single = flat = not from_list
    ordered = distinct = True
    i = 0
    while i < len(steps):
        step = steps[i]
        if step == DESCENDANT_SKIP:
            if not (single or (flat and ordered)):
                ordered = distinct = False
            single = flat = False
            i += 2 if _by_index(steps, i) else 1
            continue
        if step.axis == "child":
            ordered = ordered and flat
            single = False
        elif step.axis == "attribute":
            single, flat = single and step.node_test != "*", True
        elif step.axis == "parent" and not single:
            ordered = distinct = flat = False
        i += 1
    return ordered, distinct


def _path_of(expr: Expr, sc: Scope, mode: str, literal: str = "") -> str:
    if isinstance(expr, PathExpr):
        return _path(expr.steps, sc, mode, typed(expr.filter, sc, NODES), True, literal)
    return _path(expr.steps, sc, mode, "0" if expr.absolute else sc.node, False, literal)  # type: ignore[attr-defined]


def _path(
    steps: tuple, sc: Scope, mode: str, start: str, from_list: bool, literal: str
) -> str:
    """A call of the function for *steps* from node *start* (or from
    each node of the node-set *start*).  By *mode* it returns the
    nodes (``list``), the first one's string (``string``) or
    ``generate-id()`` (``id``), or whether there is one (``exists``) or
    one whose string is *literal* (``equals``).  Names and the
    literal are parameters, so paths of one shape share a function."""
    if len(steps) > 16:  # a loop per step, and CPython nests 20 at most: two functions
        cut = 16 - (steps[15] == DESCENDANT_SKIP)
        return _path(steps[cut:], sc, mode, _path(steps[:cut], sc, "list", start, from_list, ""), True, literal)
    ordered, distinct = _order(steps, from_list)
    if mode in ("string", "id") and not ordered:
        nodes = _path(steps, sc, "list", start, from_list, literal)
        return f"{'first' if mode == 'string' else 'generate_id'}(doc, {nodes})"
    captured: list[str] = []
    inner = Scope(sc.module, "x", sc.fallback, sc.vars, (*sc.captures, captured), [0])
    lines = ["    found = []"] if mode == "list" else []
    closers: list[str] = []  # what ends each open loop, innermost last
    constants: list[str] = []
    depth, node, attr, row = 1, "x", None, False  # row: known not to be an attribute

    def emit(line: str) -> None:
        lines.append("    " * depth + line)

    def constant(value: str) -> str:
        constants.append(repr(value))
        return f"q{len(constants)}"

    if from_list:
        node = inner.fresh("y")
        emit(f"for {node} in x:")
        depth += 1
    i = 0
    while i < len(steps):
        step = steps[i]
        if step == DESCENDANT_SKIP and _by_index(steps, i):
            step, i = steps[i + 1], i + 2
            down = inner.fresh("y")
            emit(f"for {down} in named({node}, {constant(step.node_test)}):")
            node, attr, row, depth = down, None, True, depth + 1
        elif step.axis == "self":
            i += 1
            continue
        elif step.axis in ("parent", "descendant-or-self"):
            i += 1
            up = inner.fresh("y")
            if step.axis == "parent":
                emit(f"{up} = parents[{node}]" + ("" if row else f" if {node} >= 0 else owner({node})"))
                emit(f"if {up} >= 0:")
            else:
                emit(f"for {up} in [{node}, *descendants({node})]:")
            node, attr, row, depth = up, None, step.axis == "parent", depth + 1
            continue
        else:
            i += 1
            counters = [inner.fresh("i") for p in step.predicates if isinstance(p, NumberLiteral)]
            for counter in counters:
                emit(f"{counter} = 0")
            if not row:
                emit(f"if {node} >= 0:")
                depth += 1
            if step.axis == "child":
                c, e = inner.fresh("c"), inner.fresh("e")
                emit(f"{c}, {e} = {node} + 1, ends[{node}]")
                emit(f"while {c} < {e}:")
                test = "kinds[{}] == 1" if step.node_test == "*" else f"names[{{}}] == {constant(step.node_test)}"
                emit(f"    if {test.format(c)}:")
                closers.append("    " * (depth + 1) + f"{c} = ends[{c}]")
                node, attr, row, depth = c, None, True, depth + 2
            else:  # attribute
                a = inner.fresh("a")
                emit(f"for {a} in range(alphas[{node}], alphas[{node} + 1]):")
                depth += 1
                if step.node_test != "*":
                    emit(f"if attr_names[{a}] == {constant(step.node_test)}:")
                    depth += 1
                    closers.append("    " * depth + "break")  # a name is on an element once
                node, attr, row = f"({a} - NA)", a, False
                if step.predicates:
                    node = inner.fresh("y")
                    emit(f"{node} = {a} - NA")
        for pred in step.predicates:
            if isinstance(pred, NumberLiteral):
                counter = counters.pop(0)
                emit(f"{counter} += 1")
                emit(f"if {counter} == {pred.value!r}:")
            else:
                emit(f"if {condition(pred, inner.at(node))}:")
            depth += 1
    string = f"attr_values[{attr}]" if attr else f"sv({node})"
    emit({
        "list": f"found.append({node})",
        "string": f"return {string}",
        "id": f"return f'id{{number({node})}}'",
        "exists": "return True",
        "equals": f"if {string} == {constant(literal) if mode == 'equals' else ''}: return True",
    }[mode])
    if mode in ("string", "id", "exists") and closers and closers[-1] == "    " * depth + "break":
        closers.pop()  # after a return
    lines.extend(reversed(closers))
    lines.append("    " + {
        "list": "return found" if ordered else "return sorted(found)" if distinct else "return sorted(set(found))",
        "string": "return ''", "id": "return ''", "exists": "return False", "equals": "return False",
    }[mode])
    params = [f"q{k}" for k in range(1, len(constants) + 1)]
    name = sc.module.define("p", ", ".join(["x", *params, *captured]), lines)
    return f"{name}({', '.join([start, *constants, *captured])})"


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def compile(expr: str) -> Compiled:
    """Compile *expr* to a function of a :class:`Context`.  Memoized in
    a bounded cache, so each distinct expression is compiled once per
    process.  Raises only what :func:`~repro.xslt.xpath.parser.parse`
    raises."""
    tree = parse(expr)
    module = Module(xslt=False)
    code, _ = compile_expr(tree, Scope(module, "n", "V"))
    run = load(module.source("evaluate(doc, V, n)", [f"return {code}"]), "evaluate", "<xpath>", {})
    return lambda ctx: run(ctx.doc, ctx.variables, ctx.node)


def evaluate(expr: str, context: Context) -> Any:
    """Evaluate *expr* in *context*."""
    return compile(expr)(context)
