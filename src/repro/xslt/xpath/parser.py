"""Recursive-descent parser for the XPath subset ``xmi2cnx.xsl`` uses.

Operators, loosest to tightest: ``or``, ``=``, ``>``, ``+`` and ``-``,
then paths.  A step is written abbreviated: a name or ``*``, ``@`` and
one of those, ``.``, ``..``, or ``//`` between two steps.  Every other
XPath 1.0 construct the lexer reads -- an ``axis::``, a node-type test,
``prefix:*``, ``|``, ``and``, ``!=``, ``<``, ``<=``, ``>=``, ``*``,
``div``, ``mod`` and unary minus -- raises :class:`XPathSyntaxError`
naming it.
"""

from __future__ import annotations

import functools

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
from .lexer import Token, tokenize

__all__ = ["parse", "XPathSyntaxError"]

#: the binary operators, one tuple per precedence level, loosest first
_LEVELS = (("or",), ("=",), (">",), ("+", "-"))
_OPERATORS = frozenset(op for level in _LEVELS for op in level)

#: what ``//`` stands for
DESCENDANT_SKIP = Step("descendant-or-self", "node()")


class XPathSyntaxError(ValueError):
    """Raised when the token stream does not form a valid expression."""


class _Parser:
    def __init__(self, expr: str) -> None:
        self.expr = expr
        self.tokens = tokenize(expr)
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise XPathSyntaxError(f"unexpected end of expression: {self.expr!r}")
        self.pos += 1
        return tok

    def accept_punct(self, *values: str) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.is_punct(*values):
            self.pos += 1
            return tok
        return None

    def expect_punct(self, value: str) -> Token:
        tok = self.accept_punct(value)
        if tok is None:
            got = self.peek()
            raise XPathSyntaxError(
                f"expected {value!r} at token {got!r} in {self.expr!r}"
            )
        return tok

    def unsupported(self, what: str) -> XPathSyntaxError:
        return XPathSyntaxError(f"unsupported {what} in {self.expr!r}")

    # -- expression grammar --------------------------------------------------
    def parse_expr(self, level: int = 0) -> Expr:
        if level == len(_LEVELS):
            operand = self.parse_path()
            tok = self.peek()
            if tok is not None and tok.kind == "operator" and tok.value not in _OPERATORS:
                raise self.unsupported(f"operator {tok.value!r}")
            return operand
        left = self.parse_expr(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "operator" or tok.value not in _LEVELS[level]:
                return left
            self.pos += 1
            left = BinaryOp(tok.value, left, self.parse_expr(level + 1))

    # -- paths ----------------------------------------------------------------
    def parse_path(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise XPathSyntaxError(f"empty expression: {self.expr!r}")
        if tok.kind == "operator" and tok.value == "-":
            raise self.unsupported("operator: unary minus")
        if tok.kind in ("variable", "literal", "number", "function") or tok.is_punct("("):
            primary = self.parse_primary()
            predicates = self.parse_predicates()
            filt = FilterExpr(primary, predicates) if predicates else primary
            if self.accept_punct("/"):
                return PathExpr(filt, self.parse_relative_path().steps)
            if self.accept_punct("//"):
                return PathExpr(filt, (DESCENDANT_SKIP, *self.parse_relative_path().steps))
            return filt
        return self.parse_location_path()

    def parse_primary(self) -> Expr:
        tok = self.next()
        if tok.kind == "variable":
            return VariableRef(tok.value)
        if tok.kind == "literal":
            return StringLiteral(tok.value)
        if tok.kind == "number":
            return NumberLiteral(float(tok.value))
        if tok.kind == "function":
            self.expect_punct("(")
            args: list[Expr] = []
            if not self.accept_punct(")"):
                args.append(self.parse_expr())
                while self.accept_punct(","):
                    args.append(self.parse_expr())
                self.expect_punct(")")
            return FunctionCall(tok.value, tuple(args))
        inner = self.parse_expr()  # tok is '('
        self.expect_punct(")")
        return inner

    def parse_location_path(self) -> LocationPath:
        if self.accept_punct("//"):
            return LocationPath(True, (DESCENDANT_SKIP, *self.parse_relative_path().steps))
        if self.accept_punct("/"):
            tok = self.peek()
            if tok is not None and (
                tok.kind in ("name", "wildcard", "axis", "nodetype") or tok.is_punct(".", "..", "@")
            ):
                return LocationPath(True, self.parse_relative_path().steps)
            return LocationPath(True, ())
        return self.parse_relative_path()

    def parse_relative_path(self) -> LocationPath:
        steps = [self.parse_step()]
        while True:
            if self.accept_punct("//"):
                steps.append(DESCENDANT_SKIP)
            elif not self.accept_punct("/"):
                return LocationPath(False, tuple(steps))
            steps.append(self.parse_step())

    def parse_step(self) -> Step:
        if self.accept_punct("."):
            return Step("self", "node()")
        if self.accept_punct(".."):
            return Step("parent", "node()")
        axis = "attribute" if self.accept_punct("@") else "child"
        tok = self.next()
        if tok.kind == "axis":
            raise self.unsupported(f"axis {tok.value!r}")
        if tok.kind == "nodetype":
            raise self.unsupported(f"node test {tok.value}()")
        if tok.kind == "wildcard" and tok.value != "*":
            raise self.unsupported(f"name test {tok.value!r}")
        if tok.kind not in ("name", "wildcard"):
            raise XPathSyntaxError(f"expected node test, got {tok!r} in {self.expr!r}")
        return Step(axis, tok.value, self.parse_predicates())

    def parse_predicates(self) -> tuple[Expr, ...]:
        predicates: list[Expr] = []
        while self.accept_punct("["):
            predicates.append(self.parse_expr())
            self.expect_punct("]")
        return tuple(predicates)


@functools.lru_cache(maxsize=4096)
def parse(expr: str) -> Expr:
    """Parse *expr* into an AST.  Results are memoized: stylesheets
    evaluate the same select/test expressions once per context node, and
    reparsing dominated profile time before caching."""
    parser = _Parser(expr)
    tree = parser.parse_expr()
    leftover = parser.peek()
    if leftover is not None:
        raise XPathSyntaxError(f"trailing tokens at {leftover!r} in {expr!r}")
    return tree
