"""Compiler and runtime for the XPath 1.0 subset.

Values follow the four XPath types:

* node-set  -> ``list[XNode]`` in document order, duplicate-free
* boolean   -> ``bool``
* number    -> ``float``
* string    -> ``str``

:func:`compile` lowers an expression once into a plain Python closure
``fn(context) -> value``: every AST node becomes one specialised
closure, so what can be decided from the expression alone (which axis,
which name test, whether a predicate is ``@a = 'lit'`` or ``[3]``,
whether ``//Name`` can use the name index) is decided at lowering and
evaluation only does the work that depends on the context.  Lowering
never fails for an expression that parses: anything the subset cannot
evaluate becomes a closure that raises :class:`XPathEvalError` when,
and only when, it is reached.

:func:`evaluate` and the typed wrappers :func:`evaluate_nodeset` /
:func:`evaluate_string` / :func:`evaluate_boolean` /
:func:`evaluate_number` are ``compile(expr)(context)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from .ast import (
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    LocationPath,
    NameTest,
    NodeTest,
    NodeTypeTest,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    UnaryMinus,
    UnionExpr,
    VariableRef,
)
from .datamodel import XAttribute, XNode
from .functions import (
    CORE_FUNCTIONS,
    XPathTypeError,
    to_boolean,
    to_nodeset,
    to_number,
    to_string,
)
from .parser import parse

__all__ = [
    "Context",
    "XPathEvalError",
    "compile",
    "evaluate",
    "evaluate_nodeset",
    "evaluate_string",
    "evaluate_boolean",
    "evaluate_number",
]


class XPathEvalError(ValueError):
    """Raised for runtime evaluation failures (unknown variable/function)."""


@dataclass(slots=True)
class Context:
    """Evaluation context: node, position/size, variables, functions."""

    node: XNode
    position: int = 1
    size: int = 1
    variables: Mapping[str, Any] = field(default_factory=dict)
    functions: Mapping[str, Callable[..., Any]] = field(default_factory=lambda: CORE_FUNCTIONS)


#: a lowered expression
Compiled = Callable[[Context], Any]
#: a lowered step or relative path: (start node, context) -> nodes
NodeFn = Callable[[XNode, Context], list]
#: a lowered predicate list: (candidates in axis order, context) -> kept
FilterFn = Callable[[list, Context], list]


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------

def _axis_child(node: XNode) -> Iterator[XNode]:
    yield from node.children()


def _axis_descendant(node: XNode) -> Iterator[XNode]:
    yield from node.descendants()


def _axis_parent(node: XNode) -> Iterator[XNode]:
    if node.parent is not None:
        yield node.parent


def _axis_ancestor(node: XNode) -> Iterator[XNode]:
    yield from node.ancestors()


def _axis_self(node: XNode) -> Iterator[XNode]:
    yield node


def _axis_descendant_or_self(node: XNode) -> Iterator[XNode]:
    yield node
    yield from node.descendants()


def _axis_ancestor_or_self(node: XNode) -> Iterator[XNode]:
    yield node
    yield from node.ancestors()


def _axis_attribute(node: XNode) -> Iterator[XNode]:
    yield from node.attributes()


def _siblings(node: XNode) -> list[XNode]:
    if node.parent is None or isinstance(node, XAttribute):
        return []
    return node.parent.children()


def _axis_following_sibling(node: XNode) -> Iterator[XNode]:
    sibs = _siblings(node)
    try:
        idx = sibs.index(node)
    except ValueError:
        return
    yield from sibs[idx + 1 :]


def _axis_preceding_sibling(node: XNode) -> Iterator[XNode]:
    sibs = _siblings(node)
    try:
        idx = sibs.index(node)
    except ValueError:
        return
    # reverse document order (nearest first), per spec for reverse axes
    yield from reversed(sibs[:idx])


def _axis_following(node: XNode) -> Iterator[XNode]:
    anchor = node
    while anchor is not None:
        for sib in _axis_following_sibling(anchor):
            yield sib
            yield from sib.descendants()
        anchor = anchor.parent


def _axis_preceding(node: XNode) -> Iterator[XNode]:
    ancestors = set(id(a) for a in node.ancestors())
    root = node.root()
    collected = [
        n
        for n in _axis_descendant(root)
        if n.doc_order < node.doc_order
        and id(n) not in ancestors
        and not isinstance(n, XAttribute)
    ]
    yield from reversed(collected)


_AXES: dict[str, Callable[[XNode], Iterator[XNode]]] = {
    "child": _axis_child,
    "descendant": _axis_descendant,
    "parent": _axis_parent,
    "ancestor": _axis_ancestor,
    "self": _axis_self,
    "descendant-or-self": _axis_descendant_or_self,
    "ancestor-or-self": _axis_ancestor_or_self,
    "attribute": _axis_attribute,
    "following-sibling": _axis_following_sibling,
    "preceding-sibling": _axis_preceding_sibling,
    "following": _axis_following,
    "preceding": _axis_preceding,
}

_REVERSE_AXES = frozenset({"ancestor", "ancestor-or-self", "preceding", "preceding-sibling", "parent"})



# ---------------------------------------------------------------------------
# Node tests
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _node_test(test: NodeTest, axis: str) -> Callable[[XNode], bool]:
    """*test* along *axis* as a one-argument predicate, with the
    wildcard/prefix/name case picked once."""
    if isinstance(test, NodeTypeTest):
        if test.node_type == "node":
            return lambda node: True
        kind = test.node_type
        return lambda node: node.node_type == kind
    assert isinstance(test, NameTest)
    principal = "attribute" if axis == "attribute" else "element"
    if test.is_wildcard:
        return lambda node: node.node_type == principal
    prefix = test.prefix_wildcard
    if prefix is not None:
        start = prefix + ":"
        return lambda node: node.node_type == principal and node.name.startswith(start)
    name = test.name
    return lambda node: node.name == name and node.node_type == principal


# ---------------------------------------------------------------------------
# Node-set helpers
# ---------------------------------------------------------------------------

def _dedup_doc_order(nodes: Iterable[XNode]) -> list[XNode]:
    seen: set[int] = set()
    unique: list[XNode] = []
    in_order = True
    last = -1
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
            if node.doc_order < last:
                in_order = False
            last = node.doc_order
    if not in_order:
        unique.sort(key=lambda n: n.doc_order)
    return unique


def is_descendant_skip(step: Step) -> bool:
    """Whether *step* is what ``//`` expands to: a bare
    descendant-or-self::node()."""
    return (
        step.axis == "descendant-or-self"
        and isinstance(step.node_test, NodeTypeTest)
        and step.node_test.node_type == "node"
        and not step.predicates
    )


def _is_slash_slash_name(first: Step, second: Step) -> bool:
    """Whether two consecutive steps are the `//Name` expansion."""
    return (
        is_descendant_skip(first)
        and second.axis == "child"
        and isinstance(second.node_test, NameTest)
        and not second.node_test.is_wildcard
        and second.node_test.prefix_wildcard is None
    )


# ---------------------------------------------------------------------------
# Comparisons (3.4)
# ---------------------------------------------------------------------------

def _compare(op: str, left: Any, right: Any) -> bool:
    """XPath comparison semantics (3.4): node-sets compare existentially,
    except against booleans, where the whole set converts via boolean()."""
    if op in ("=", "!=") and (isinstance(left, bool) or isinstance(right, bool)):
        return _compare_atomic(op, to_boolean(left), to_boolean(right))
    if isinstance(left, list) and isinstance(right, list):
        rvals = [n.string_value() for n in right]
        for lnode in left:
            lval = lnode.string_value()
            for rval in rvals:
                if _compare_atomic(op, lval, rval):
                    return True
        return False
    if isinstance(left, list):
        return any(_compare_atomic(op, _coerce_for(right, n.string_value()), right) for n in left)
    if isinstance(right, list):
        swapped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        return _compare(swapped, right, left)
    return _compare_atomic(op, left, right)


def _coerce_for(other: Any, string_value: str) -> Any:
    """Convert a node's string-value to the type dictated by *other*."""
    if isinstance(other, (int, float)) and not isinstance(other, bool):
        return to_number(string_value)
    return string_value


def _compare_atomic(op: str, left: Any, right: Any) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, (int, float)) or isinstance(right, (int, float)):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result
    lnum, rnum = to_number(left), to_number(right)
    if math.isnan(lnum) or math.isnan(rnum):
        return False
    if op == "<":
        return lnum < rnum
    if op == "<=":
        return lnum <= rnum
    if op == ">":
        return lnum > rnum
    if op == ">=":
        return lnum >= rnum
    raise XPathEvalError(f"unknown comparison {op!r}")



# ---------------------------------------------------------------------------
# Lowering: predicates and steps
# ---------------------------------------------------------------------------

def _attribute_name(expr: Expr) -> str | None:
    """*name* when *expr* is the relative path ``@name``, else None."""
    if not isinstance(expr, LocationPath) or expr.absolute or len(expr.steps) != 1:
        return None
    step, test = expr.steps[0], expr.steps[0].node_test
    named = isinstance(test, NameTest) and not test.is_wildcard and not test.prefix_wildcard
    return test.name if named and step.axis == "attribute" and not step.predicates else None


def _attr_const_shape(pred: Expr) -> tuple[str, Expr] | None:
    """The predicate shape ``@name = <literal|$var>`` (either side) as
    ``(attr_name, value_side)``; None when *pred* is anything else.  The
    value side does not depend on the candidate, so the comparison runs
    as a plain string check per candidate -- the hottest predicate shape
    in the XMI stylesheets (id/idref joins)."""
    if not isinstance(pred, BinaryOp) or pred.op != "=":
        return None
    for attr_side, value_side in ((pred.left, pred.right), (pred.right, pred.left)):
        name = _attribute_name(attr_side)
        if name is not None and isinstance(value_side, (StringLiteral, VariableRef)):
            return name, value_side
    return None


def _lower_predicate(pred: Expr) -> FilterFn:
    if isinstance(pred, NumberLiteral):
        # [k]: the k-th candidate in axis order, nothing for a k no
        # position can equal
        k = pred.value
        if k != k or k < 1 or k != int(k):
            return lambda nodes, ctx: []
        index = int(k) - 1
        return lambda nodes, ctx: [nodes[index]] if len(nodes) > index else []

    expr = _lower(pred)

    def generic(nodes: list, ctx: Context) -> list:
        size = len(nodes)
        if not size:
            return nodes
        # one context for the whole candidate list, moved along it
        sub = Context(nodes[0], 0, size, ctx.variables, ctx.functions)
        kept = []
        position = 0
        for node in nodes:
            position += 1
            sub.node = node
            sub.position = position
            value = expr(sub)
            if value is True:
                kept.append(node)
            elif value is False:
                continue
            elif isinstance(value, (int, float)):
                if float(value) == position:
                    kept.append(node)
            elif to_boolean(value):
                kept.append(node)
        return kept

    shape = _attr_const_shape(pred)
    if shape is None:
        return generic
    attr_name, value_side = shape

    def keep(nodes: list, wanted: str) -> list:
        kept = []
        for node in nodes:
            attr = node.attribute(attr_name)
            if attr is not None and attr.value == wanted:
                kept.append(node)
        return kept

    if isinstance(value_side, StringLiteral):
        literal = value_side.value
        return lambda nodes, ctx: keep(nodes, literal)
    var_name = value_side.name

    def attr_equals_variable(nodes: list, ctx: Context) -> list:
        try:
            wanted = ctx.variables[var_name]
        except KeyError:
            return generic(nodes, ctx)  # raises iff there is a candidate
        if isinstance(wanted, str):
            return keep(nodes, wanted)
        return generic(nodes, ctx)

    return attr_equals_variable


def _lower_predicates(predicates: tuple[Expr, ...]) -> FilterFn:
    filters = tuple(_lower_predicate(p) for p in predicates)
    if len(filters) == 1:
        return filters[0]

    def chain(nodes: list, ctx: Context) -> list:
        for keep in filters:
            nodes = keep(nodes, ctx)
        return nodes

    return chain


def _lower_scan(axis: str, test: NodeTest) -> NodeFn:
    """Axis walk + node test as one function returning a fresh list in
    axis order."""
    plain_name = (
        isinstance(test, NameTest)
        and not test.is_wildcard
        and test.prefix_wildcard is None
    )
    any_node = isinstance(test, NodeTypeTest) and test.node_type == "node"
    if axis == "child":
        if plain_name:
            name = test.name  # only elements among children carry a name
            return lambda node, ctx: [c for c in node.children() if c.name == name]
        if any_node:
            return lambda node, ctx: list(node.children())
        if isinstance(test, NameTest) and test.is_wildcard:
            return lambda node, ctx: [
                c for c in node.children() if c.node_type == "element"
            ]
    elif axis == "attribute":
        if plain_name:
            name = test.name

            def one_attribute(node: XNode, ctx: Context) -> list:
                attr = node.attribute(name)
                return [attr] if attr is not None else []

            return one_attribute
        if any_node or (isinstance(test, NameTest) and test.is_wildcard):
            return lambda node, ctx: node.attributes()
    elif axis == "self" and any_node:
        return lambda node, ctx: [node]
    elif axis == "parent" and any_node:
        return lambda node, ctx: [node.parent] if node.parent is not None else []
    axis_fn = _AXES[axis]
    matches = _node_test(test, axis)
    return lambda node, ctx: [n for n in axis_fn(node) if matches(n)]


def _lower_step(step: Step) -> NodeFn:
    """One step from one node: candidates in axis order, predicates
    applied."""
    axis = step.axis
    if axis not in _AXES:

        def unsupported(node: XNode, ctx: Context) -> list:
            raise XPathEvalError(f"unsupported axis {axis!r}")

        return unsupported
    scan = _lower_scan(axis, step.node_test)
    if not step.predicates:
        return scan
    keep = _lower_predicates(step.predicates)
    return lambda node, ctx: keep(scan(node, ctx), ctx)


#: axes on which distinct sources in document order give distinct
#: results in document order, so no dedup pass is needed
_ORDER_PRESERVING_AXES = frozenset({"attribute", "self"})


def _advance_by_step(step: Step) -> FilterFn:
    """(current node-set, context) -> next node-set for one ordinary step."""
    step_fn = _lower_step(step)
    reverse = step.axis in _REVERSE_AXES
    ordered = step.axis in _ORDER_PRESERVING_AXES

    def advance(current: list, ctx: Context) -> list:
        if len(current) == 1:
            # one source node on a forward axis (or one result on any):
            # already unique and in document order
            selected = step_fn(current[0], ctx)
            return _dedup_doc_order(selected) if reverse and len(selected) > 1 else selected
        gathered: list[XNode] = []
        for node in current:
            gathered.extend(step_fn(node, ctx))
        return gathered if ordered else _dedup_doc_order(gathered)

    return advance


def _advance_by_name_index(skip: Step, name_step: Step) -> FilterFn:
    """``//Name[preds]`` from a single node through the per-subtree name
    index; from several nodes the two steps run as written."""
    name = name_step.node_test.name  # type: ignore[union-attr]
    keep = _lower_predicates(name_step.predicates) if name_step.predicates else None
    expand = _advance_by_step(skip)
    select = _advance_by_step(name_step)

    def advance(current: list, ctx: Context) -> list:
        if len(current) != 1:
            return select(expand(current, ctx), ctx)
        candidates = current[0].descendants_named(name)
        if keep is None:
            return candidates
        # predicate positions are per parent (XPath abbreviation
        # semantics), so filter each sibling group independently
        groups: dict[int, list[XNode]] = {}
        for candidate in candidates:
            groups.setdefault(id(candidate.parent), []).append(candidate)
        kept: list[XNode] = []
        for group in groups.values():
            kept.extend(keep(group, ctx))
        return _dedup_doc_order(kept)

    return advance


def _lower_steps(steps: tuple[Step, ...]) -> NodeFn:
    """A relative path as ``(start node, context) -> node-set``."""
    if len(steps) == 1 and steps[0].axis not in _REVERSE_AXES:
        return _lower_step(steps[0])
    plan: list[FilterFn] = []
    i = 0
    while i < len(steps):
        if i + 1 < len(steps) and _is_slash_slash_name(steps[i], steps[i + 1]):
            plan.append(_advance_by_name_index(steps[i], steps[i + 1]))
            i += 2
        else:
            plan.append(_advance_by_step(steps[i]))
            i += 1
    stages = tuple(plan)

    def walk(node: XNode, ctx: Context) -> list:
        current = [node]
        for advance in stages:
            current = advance(current, ctx)
            if not current:
                break
        return current

    return walk


# ---------------------------------------------------------------------------
# Lowering: expressions
# ---------------------------------------------------------------------------

_NOT_CONSTANT = object()


def _constant(value: Any) -> Compiled:
    def const(ctx: Context) -> Any:
        return value

    const.value = value  # type: ignore[attr-defined]  # marks a context-free closure
    return const


def _fold(fn: Compiled, *operands: Compiled) -> Compiled:
    """*fn* itself, or its value as a constant when every operand is one
    (literal arithmetic and comparisons cannot raise)."""
    if all(getattr(op, "value", _NOT_CONSTANT) is not _NOT_CONSTANT for op in operands):
        return _constant(fn(None))  # type: ignore[arg-type]
    return fn


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
    list; an unknown name or a bad arity raises when the call is reached."""
    name = expr.name
    args = tuple(_lower(a) for a in expr.args)

    def unknown() -> Any:
        raise XPathEvalError(f"unknown function {name}()")

    def bad_call(exc: TypeError) -> XPathEvalError:
        return XPathEvalError(f"bad call to {name}(): {exc}")

    if len(args) == 1:
        (a,) = args

        def call1(ctx: Context) -> Any:
            fn, x = ctx.functions.get(name) or unknown(), a(ctx)
            try:
                return fn(ctx, x)
            except TypeError as exc:
                raise bad_call(exc) from exc

        return call1
    if len(args) == 2:
        a, b = args

        def call2(ctx: Context) -> Any:
            fn, x, y = ctx.functions.get(name) or unknown(), a(ctx), b(ctx)
            try:
                return fn(ctx, x, y)
            except TypeError as exc:
                raise bad_call(exc) from exc

        return call2
    if len(args) == 3:
        a, b, c = args

        def call3(ctx: Context) -> Any:
            fn, x, y, z = ctx.functions.get(name) or unknown(), a(ctx), b(ctx), c(ctx)
            try:
                return fn(ctx, x, y, z)
            except TypeError as exc:
                raise bad_call(exc) from exc

        return call3

    def call(ctx: Context) -> Any:
        fn = ctx.functions.get(name) or unknown()
        values = [arg(ctx) for arg in args]
        try:
            return fn(ctx, *values)
        except TypeError as exc:
            raise bad_call(exc) from exc

    return call


def _divide(lnum: float, rnum: float) -> float:
    if rnum == 0:
        if lnum == 0 or math.isnan(lnum):
            return float("nan")
        return math.copysign(float("inf"), lnum) * math.copysign(1.0, rnum)
    return lnum / rnum


def _modulo(lnum: float, rnum: float) -> float:
    if rnum == 0:
        return float("nan")
    return math.fmod(lnum, rnum)


_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "div": _divide,
    "mod": _modulo,
}


def _lower_binary(expr: BinaryOp) -> Compiled:
    op = expr.op
    left, right = _lower(expr.left), _lower(expr.right)
    if op == "or":
        return _fold(lambda ctx: to_boolean(left(ctx)) or to_boolean(right(ctx)), left, right)
    if op == "and":
        return _fold(lambda ctx: to_boolean(left(ctx)) and to_boolean(right(ctx)), left, right)
    if op == "=" and isinstance(expr.left, StringLiteral) != isinstance(expr.right, StringLiteral):
        on_left = isinstance(expr.left, StringLiteral)
        operand, literal = (right, expr.left.value) if on_left else (left, expr.right.value)  # type: ignore[attr-defined]

        def equals_literal(ctx: Context) -> bool:
            value = operand(ctx)
            if value.__class__ is str:
                return value == literal
            if value.__class__ is list:
                return any(node.string_value() == literal for node in value)
            return _compare(op, value, literal)

        return _fold(equals_literal, operand)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return _fold(lambda ctx: _compare(op, left(ctx), right(ctx)), left, right)
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is None:  # only a hand-built AST gets here

        def unknown(ctx: Context) -> Any:
            raise XPathEvalError(f"unknown operator {op!r}")

        return unknown

    def compute(ctx: Context) -> float:
        lval, rval = left(ctx), right(ctx)
        return arithmetic(to_number(lval), to_number(rval))

    return _fold(compute, left, right)


def _lower_negate(expr: UnaryMinus) -> Compiled:
    operand = _lower(expr.operand)
    return _fold(lambda ctx: -to_number(operand(ctx)), operand)


def _lower_union(expr: UnionExpr) -> Compiled:
    parts = tuple(_lower(p) for p in expr.parts)

    def union(ctx: Context) -> list:
        combined: list[XNode] = []
        for part in parts:
            combined.extend(to_nodeset(part(ctx)))
        return _dedup_doc_order(combined)

    return union


def _lower_location_path(path: LocationPath) -> Compiled:
    if not path.steps:
        return lambda ctx: [ctx.node.root()]
    walk = _lower_steps(path.steps)
    if path.absolute:
        return lambda ctx: walk(ctx.node.root(), ctx)

    def relative(ctx: Context) -> list:
        return walk(ctx.node, ctx)

    relative.attribute = _attribute_name(path)  # type: ignore[attr-defined]  # key tables read it
    return relative


def _lower_filter(expr: FilterExpr) -> Compiled:
    primary = _lower(expr.primary)
    keep = _lower_predicates(expr.predicates)
    return lambda ctx: keep(list(to_nodeset(primary(ctx))), ctx)


def _lower_path_expr(expr: PathExpr) -> Compiled:
    base_fn = _lower(expr.filter)
    walk = _lower_steps(expr.path.steps)
    descendants = expr.descendants

    def path_from_filter(ctx: Context) -> list:
        base = to_nodeset(base_fn(ctx))
        if descendants:
            expanded: list[XNode] = []
            for node in base:
                expanded.append(node)
                expanded.extend(node.descendants())
            base = _dedup_doc_order(expanded)
        if len(base) == 1:
            return walk(base[0], ctx)
        gathered: list[XNode] = []
        for node in base:
            gathered.extend(walk(node, ctx))
        return _dedup_doc_order(gathered)

    return path_from_filter


_LOWERINGS: dict[type, Callable[[Any], Compiled]] = {
    NumberLiteral: lambda expr: _constant(expr.value),
    StringLiteral: lambda expr: _constant(expr.value),
    VariableRef: _lower_variable,
    FunctionCall: _lower_call,
    BinaryOp: _lower_binary,
    UnaryMinus: _lower_negate,
    UnionExpr: _lower_union,
    LocationPath: _lower_location_path,
    FilterExpr: _lower_filter,
    PathExpr: _lower_path_expr,
}


def _lower(expr: Expr) -> Compiled:
    lowering = _LOWERINGS.get(type(expr))
    if lowering is None:

        def cannot(ctx: Context) -> Any:
            raise XPathEvalError(f"cannot evaluate {expr!r}")

        return cannot
    return lowering(expr)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _compile_source(source: str) -> Compiled:
    return _lower(parse(source))


_compile_tree = functools.lru_cache(maxsize=4096)(_lower)


def compile(expr: str | Expr) -> Compiled:
    """Lower *expr* (source string or pre-parsed AST) to a closure taking
    a :class:`Context`.  Memoized in a bounded cache, so a stylesheet
    pays for each distinct expression once per process.  Raises only
    what :func:`~repro.xslt.xpath.parser.parse` raises."""
    if isinstance(expr, str):
        return _compile_source(expr)
    return _compile_tree(expr)


def evaluate(expr: str | Expr, context: Context) -> Any:
    """Evaluate *expr* (source string or pre-parsed AST) in *context*."""
    return compile(expr)(context)


def evaluate_nodeset(expr: str | Expr, context: Context) -> list[XNode]:
    value = evaluate(expr, context)
    try:
        return to_nodeset(value)
    except XPathTypeError as exc:
        raise XPathEvalError(f"{expr} did not yield a node-set: {exc}") from exc


def evaluate_string(expr: str | Expr, context: Context) -> str:
    return to_string(evaluate(expr, context))


def evaluate_boolean(expr: str | Expr, context: Context) -> bool:
    return to_boolean(evaluate(expr, context))


def evaluate_number(expr: str | Expr, context: Context) -> float:
    return to_number(evaluate(expr, context))
