"""Abstract syntax tree for the XPath subset ``xmi2cnx.xsl`` uses.

Nodes are plain frozen dataclasses; evaluation lives in
:mod:`repro.xslt.xpath.evaluator` so the AST stays a passive value
(XSLT pattern compilation reads location-path ASTs too).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Expr",
    "NumberLiteral",
    "StringLiteral",
    "VariableRef",
    "FunctionCall",
    "BinaryOp",
    "Step",
    "LocationPath",
    "FilterExpr",
    "PathExpr",
]


class Expr:
    """Marker base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class NumberLiteral(Expr):
    value: float


@dataclass(frozen=True)
class StringLiteral(Expr):
    value: str


@dataclass(frozen=True)
class VariableRef(Expr):
    name: str


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # 'or' '=' '>' '+' '-'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Step:
    axis: str  # 'child' 'attribute' 'self' 'parent' 'descendant-or-self'
    #: an element or attribute name, ``*``, or ``node()`` (any node)
    node_test: str
    predicates: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class LocationPath(Expr):
    absolute: bool
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression with predicates, e.g. ``$nodes[1]``."""

    primary: Expr
    predicates: tuple[Expr, ...]


@dataclass(frozen=True)
class PathExpr(Expr):
    """A filter expression, then ``/`` or ``//`` and a relative path: a
    ``//`` is the path's first step, ``descendant-or-self::node()``."""

    filter: Expr
    steps: tuple[Step, ...]
