"""Compiler and runtime for the XPath subset ``xmi2cnx.xsl`` uses.

Values follow the four XPath types:

* node-set  -> ``list[int]`` (a node is an int, see
  :mod:`~repro.xslt.xpath.datamodel`) in document order, duplicate-free
* boolean   -> ``bool``
* number    -> ``float``
* string    -> ``str``

:func:`compile` lowers an expression once into a plain Python closure
``fn(context) -> value``: every AST node becomes one specialised
closure, so what can be decided from the expression alone (which axis,
which name test, whether a predicate is ``[3]``, whether ``//Name`` can
use the name index, whether a call has the arity its function takes) is
decided at lowering and evaluation only does the work that depends on
the context.  Lowering never fails for an expression that parses:
anything the subset cannot evaluate becomes a closure that raises
:class:`XPathEvalError` when, and only when, it is reached.

:func:`evaluate` is ``compile(expr)(context)``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .ast import (
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    VariableRef,
)
from .datamodel import ELEMENT, XDocument
from .functions import (
    ARITY,
    CORE_FUNCTIONS,
    to_boolean,
    to_nodeset,
    to_number,
    to_string,
)
from .parser import DESCENDANT_SKIP, parse

__all__ = ["Context", "XPathEvalError", "compile", "evaluate"]


class XPathEvalError(ValueError):
    """Raised for runtime evaluation failures (unknown variable/function)."""


@dataclass(slots=True)
class Context:
    """Evaluation context: the document, variables, functions, and the
    context node (the document node unless given)."""

    doc: XDocument
    variables: Mapping[str, Any] = field(default_factory=dict)
    functions: Mapping[str, Callable[..., Any]] = field(default_factory=lambda: CORE_FUNCTIONS)
    node: int = 0


#: a lowered expression
Compiled = Callable[[Context], Any]
#: a lowered step: (start node, context) -> nodes
NodeFn = Callable[[int, Context], list]
#: a lowered predicate list or path: (node list, context) -> node list
FilterFn = Callable[[list, Context], list]


# ---------------------------------------------------------------------------
# Comparisons (3.4)
# ---------------------------------------------------------------------------

def _compare(op: str, left: Any, right: Any, doc: XDocument) -> bool:
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


# ---------------------------------------------------------------------------
# Lowering: predicates and steps
# ---------------------------------------------------------------------------

def _attribute_name(expr: Expr) -> str | None:
    """*name* when *expr* is the relative path ``@name``, else None."""
    if not isinstance(expr, LocationPath) or expr.absolute or len(expr.steps) != 1:
        return None
    step = expr.steps[0]
    named = step.axis == "attribute" and step.node_test != "*" and not step.predicates
    return step.node_test if named else None


def _lower_predicate(pred: Expr) -> FilterFn:
    if isinstance(pred, NumberLiteral):
        # [k]: the k-th candidate in document order, nothing for a k no
        # position can equal
        index = int(pred.value) - 1 if pred.value.is_integer() else -1
        return lambda nodes, ctx: [nodes[index]] if 0 <= index < len(nodes) else []

    expr = _lower(pred)

    def test(nodes: list, ctx: Context) -> list:
        if not nodes:
            return nodes
        # one context for the whole candidate list, moved along it
        sub = Context(ctx.doc, ctx.variables, ctx.functions, nodes[0])
        kept = []
        for node in nodes:
            sub.node = node
            value = expr(sub)
            if value.__class__ is not bool:
                if isinstance(value, (int, float)):  # [$n] is [position() = $n]
                    raise XPathEvalError("unsupported predicate: a number other than a literal [n]")
                value = to_boolean(value)
            if value:
                kept.append(node)
        return kept

    return test


def _lower_predicates(predicates: tuple[Expr, ...]) -> FilterFn:
    filters = tuple(_lower_predicate(p) for p in predicates)
    if len(filters) == 1:
        return filters[0]

    def chain(nodes: list, ctx: Context) -> list:
        for keep in filters:
            nodes = keep(nodes, ctx)
        return nodes

    return chain


def _lower_scan(axis: str, test: str) -> NodeFn:
    """Axis walk + node test as one function returning a fresh list in
    document order.  ``.``, ``..`` and ``//`` test ``node()``; a child or
    attribute step tests a name or ``*``.  The two hottest shapes, a
    named child and a named attribute, read the document's lists
    themselves rather than through a method."""
    if axis == "self":
        return lambda node, ctx: [node]
    if axis == "parent":
        return lambda node, ctx: [] if node == 0 else [ctx.doc.parent(node)]
    if axis == "descendant-or-self":
        return lambda node, ctx: [node, *ctx.doc.descendants(node)]
    if axis == "attribute":
        if test == "*":
            return lambda node, ctx: ctx.doc.attributes(node)

        def one_attribute(node: int, ctx: Context) -> list:
            if node >= 0:  # not itself an attribute
                doc = ctx.doc
                names, alphas = doc.attr_names, doc.alphas
                for attr in range(alphas[node], alphas[node + 1]):
                    if names[attr] == test:
                        return [attr - len(names)]
            return []

        return one_attribute
    if test == "*":

        def elements(node: int, ctx: Context) -> list:
            kinds = ctx.doc.kinds
            return [c for c in ctx.doc.children(node) if kinds[c] == ELEMENT]

        return elements

    def named(node: int, ctx: Context) -> list:
        # XDocument.children with the name test folded in: only elements
        # among the rows carry a name
        doc = ctx.doc
        names, ends = doc.names, doc.ends
        found = []
        child, end = node + 1, ends[node] if node >= 0 else 0
        while child < end:
            if names[child] == test:
                found.append(child)
            child = ends[child]
        return found

    return named


def _lower_step(step: Step) -> NodeFn:
    """One step from one node: candidates in document order, predicates
    applied."""
    scan = _lower_scan(step.axis, step.node_test)
    if not step.predicates:
        return scan
    keep = _lower_predicates(step.predicates)
    return lambda node, ctx: keep(scan(node, ctx), ctx)


def _advance_by_step(step: Step) -> FilterFn:
    """(current node-set, context) -> next node-set for one ordinary step."""
    step_fn = _lower_step(step)
    # from distinct sources in document order, an attribute or self step
    # gives distinct results in document order: no dedup pass
    ordered = step.axis in ("attribute", "self")

    def advance(current: list, ctx: Context) -> list:
        if len(current) == 1:
            return step_fn(current[0], ctx)
        gathered: list[int] = []
        for node in current:
            gathered.extend(step_fn(node, ctx))
        return gathered if ordered else sorted(set(gathered))

    return advance


def _advance_by_name_index(name_step: Step) -> FilterFn:
    """``//Name[preds]`` from a single node, through its document's name
    index.  From several nodes, or with a positional ``[n]`` (whose
    positions are per parent), the two steps run as written."""
    name = name_step.node_test
    keep = _lower_predicates(name_step.predicates)
    expand, select = _advance_by_step(DESCENDANT_SKIP), _advance_by_step(name_step)
    positional = any(isinstance(p, NumberLiteral) for p in name_step.predicates)

    def advance(current: list, ctx: Context) -> list:
        if len(current) != 1 or positional:
            return select(expand(current, ctx), ctx)
        return keep(ctx.doc.descendants_named(current[0], name), ctx)

    return advance


def _lower_steps(steps: tuple[Step, ...]) -> FilterFn:
    """A relative path as ``(start node-set, context) -> node-set``."""
    plan: list[FilterFn] = []
    i = 0
    while i < len(steps):
        if (
            steps[i] == DESCENDANT_SKIP
            and i + 1 < len(steps)
            and steps[i + 1].axis == "child"
            and steps[i + 1].node_test != "*"
        ):
            plan.append(_advance_by_name_index(steps[i + 1]))
            i += 2
        else:
            plan.append(_advance_by_step(steps[i]))
            i += 1
    if len(plan) == 1:
        return plan[0]
    stages = tuple(plan)

    def walk(current: list, ctx: Context) -> list:
        for advance in stages:
            current = advance(current, ctx)
            if not current:
                break
        return current

    return walk


# ---------------------------------------------------------------------------
# Lowering: expressions
# ---------------------------------------------------------------------------

def _constant(value: Any) -> Compiled:
    return lambda ctx: value


def _lower_variable(expr: VariableRef) -> Compiled:
    name = expr.name

    def variable(ctx: Context) -> Any:
        try:
            return ctx.variables[name]
        except KeyError:
            raise XPathEvalError(f"unbound variable ${name}") from None

    return variable


def _lower_call(expr: FunctionCall) -> Compiled:
    """A call bound by arity, one to three arguments with no per-call
    list.  A call outside its function's :data:`ARITY`, or to an unknown
    name, raises when it is reached."""
    name, count = expr.name, len(expr.args)
    least, most = ARITY.get(name, (count, count))
    if count < least or (most is not None and count > most):
        takes = f"{least} or more" if most is None else f"{least} or {most}" if most > least else str(least)
        message = f"{name}() takes {takes} argument{'' if takes == '1' else 's'}"

        def bad_arity(ctx: Context) -> Any:
            raise XPathEvalError(message)

        return bad_arity
    args = tuple(_lower(a) for a in expr.args)

    def unknown() -> Any:
        raise XPathEvalError(f"unknown function {name}()")

    if count == 1:
        (a,) = args
        return lambda ctx: (ctx.functions.get(name) or unknown())(ctx, a(ctx))
    if count == 2:
        a, b = args
        return lambda ctx: (ctx.functions.get(name) or unknown())(ctx, a(ctx), b(ctx))
    if count == 3:
        a, b, c = args
        return lambda ctx: (ctx.functions.get(name) or unknown())(ctx, a(ctx), b(ctx), c(ctx))
    return lambda ctx: (ctx.functions.get(name) or unknown())(ctx, *[arg(ctx) for arg in args])


_ARITHMETIC: dict[str, Callable[[float, float], float]] = {"+": operator.add, "-": operator.sub}


def _lower_binary(expr: BinaryOp) -> Compiled:
    op = expr.op
    left, right = _lower(expr.left), _lower(expr.right)
    if op == "or":
        return lambda ctx: to_boolean(left(ctx)) or to_boolean(right(ctx))
    if op == "=" and isinstance(expr.left, StringLiteral) != isinstance(expr.right, StringLiteral):
        on_left = isinstance(expr.left, StringLiteral)
        operand, literal = (right, expr.left.value) if on_left else (left, expr.right.value)  # type: ignore[attr-defined]

        def equals_literal(ctx: Context) -> bool:
            value = operand(ctx)
            if value.__class__ is str:
                return value == literal
            if value.__class__ is list:
                string_value = ctx.doc.string_value
                return any(string_value(node) == literal for node in value)
            return _compare(op, value, literal, ctx.doc)

        return equals_literal
    if op in ("=", ">"):
        return lambda ctx: _compare(op, left(ctx), right(ctx), ctx.doc)
    arithmetic = _ARITHMETIC[op]
    return lambda ctx: arithmetic(to_number(left(ctx), ctx.doc), to_number(right(ctx), ctx.doc))


def _lower_location_path(path: LocationPath) -> Compiled:
    if not path.steps:  # the document is node 0
        return lambda ctx: [0]
    if path.absolute:
        walk = _lower_steps(path.steps)
        return lambda ctx: walk([0], ctx)
    if len(path.steps) == 1:
        step_fn = _lower_step(path.steps[0])

        def relative(ctx: Context) -> list:
            return step_fn(ctx.node, ctx)

    else:
        walk = _lower_steps(path.steps)

        def relative(ctx: Context) -> list:
            return walk([ctx.node], ctx)

    relative.attribute = _attribute_name(path)  # type: ignore[attr-defined]  # key tables read it
    return relative


def _lower_filter(expr: FilterExpr) -> Compiled:
    primary = _lower(expr.primary)
    keep = _lower_predicates(expr.predicates)
    return lambda ctx: keep(list(to_nodeset(primary(ctx))), ctx)


def _lower_path_expr(expr: PathExpr) -> Compiled:
    base = _lower(expr.filter)
    walk = _lower_steps(expr.steps)
    return lambda ctx: walk(to_nodeset(base(ctx)), ctx)


_LOWERINGS: dict[type, Callable[[Any], Compiled]] = {
    NumberLiteral: lambda expr: _constant(expr.value),
    StringLiteral: lambda expr: _constant(expr.value),
    VariableRef: _lower_variable,
    FunctionCall: _lower_call,
    BinaryOp: _lower_binary,
    LocationPath: _lower_location_path,
    FilterExpr: _lower_filter,
    PathExpr: _lower_path_expr,
}


def _lower(expr: Expr) -> Compiled:
    return _LOWERINGS[type(expr)](expr)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def compile(expr: str) -> Compiled:
    """Lower *expr* to a closure taking a :class:`Context`.  Memoized in
    a bounded cache, so a stylesheet pays for each distinct expression
    once per process.  Raises only what
    :func:`~repro.xslt.xpath.parser.parse` raises."""
    return _lower(parse(expr))


def evaluate(expr: str, context: Context) -> Any:
    """Evaluate *expr* in *context*."""
    return compile(expr)(context)
