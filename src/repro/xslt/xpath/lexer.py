"""Tokenizer for XPath 1.0 expressions.

Reads all of XPath 1.0's lexical grammar (section 3.7), not only the
subset the parser takes, so that the parser can name each construct it
refuses.  That includes the context-sensitive disambiguations the
grammar requires:

* ``*`` is the multiply operator when preceded by a token that can end an
  operand; otherwise it is a name-test wildcard,
* an NCName followed by ``(`` is a function call unless it is a node-type
  test (``node``, ``text``, ``comment``, ``processing-instruction``), and
  an NCName followed by ``::`` is an axis name,
* the operator names ``and or mod div`` are operators only in operator
  position, names otherwise.
"""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = ["Token", "XPathLexError", "tokenize", "NODE_TYPES"]

NODE_TYPES = ("comment", "text", "processing-instruction", "node")

_OPERATOR_NAMES = ("and", "or", "mod", "div")

# Punctuation, tried longest first; ``$`` is not here, it only starts a
# variable reference.
_PUNCT = (
    "..", "::", "//", "!=", "<=", ">=",
    "(", ")", "[", "]", ".", "@", ",", "/", "|", "+", "-", "=", "<", ">", "*",
)
_OPERATORS = frozenset(("+", "-", "=", "!=", "<", "<=", ">", ">=", "|"))

_NCNAME = r"[A-Za-z_][\w.-]*"
_QNAME = rf"{_NCNAME}:(?:{_NCNAME}|\*)|{_NCNAME}"
#: one alternation for every token; at a given character at most one
#: alternative can start, except ``.``, which is a number before a digit
_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
    |(?P<literal>"[^"]*"|'[^']*')
    |(?P<number>\d+(?:\.\d*)?|\.\d+)
    |\$(?P<variable>{_QNAME})
    |(?P<name>{_QNAME})
    |(?P<punct>{"|".join(map(re.escape, _PUNCT))})""",
    re.VERBOSE,
)
_WS_RE = re.compile(r"\s*")


class XPathLexError(ValueError):
    """Raised when the expression contains an unrecognized character."""


class Token(NamedTuple):
    kind: str  # 'name' | 'wildcard' | 'number' | 'literal' | 'operator' | 'axis' | 'function' | 'nodetype' | 'variable' | punctuation itself
    value: str
    pos: int

    def is_punct(self, *values: str) -> bool:
        return self.kind == "punct" and self.value in values


def _preceded_by_operand(tokens: list[Token]) -> bool:
    """True when the previous token can terminate an operand, which makes a
    following ``*`` / ``and`` / ``or`` / ``div`` / ``mod`` an operator."""
    if not tokens:
        return False
    prev = tokens[-1]
    if prev.kind in ("name", "wildcard", "number", "literal", "variable"):
        return True
    return prev.is_punct(")", "]", "..", ".")


def tokenize(expr: str) -> list[Token]:
    """Tokenize *expr* into a list of :class:`Token`."""
    tokens: list[Token] = []
    append = tokens.append
    i, n = 0, len(expr)
    while i < n:
        match = _TOKEN_RE.match(expr, i)
        if match is None:
            ch = expr[i]
            if ch in ("'", '"'):
                raise XPathLexError(f"unterminated literal at {i} in {expr!r}")
            if ch == "$":
                raise XPathLexError(f"bad variable reference at {i} in {expr!r}")
            raise XPathLexError(f"unexpected character {ch!r} at {i} in {expr!r}")
        kind = match.lastgroup
        value = match[kind]
        end = match.end()
        if kind == "name":
            # operator-name disambiguation
            if value in _OPERATOR_NAMES and _preceded_by_operand(tokens):
                kind = "operator"
            else:
                # look ahead past whitespace
                j = _WS_RE.match(expr, end).end()
                if expr.startswith("::", j):
                    kind, end = "axis", j + 2
                elif expr.startswith("(", j):
                    kind = "nodetype" if value in NODE_TYPES else "function"
                elif value.endswith(":*"):
                    kind = "wildcard"
        elif kind == "punct":
            if value == "*":
                kind = "operator" if _preceded_by_operand(tokens) else "wildcard"
            elif value in _OPERATORS:
                kind = "operator"
        elif kind == "literal":
            value = value[1:-1]
        elif kind == "ws":
            i = end
            continue
        append(Token(kind, value, i))
        i = end
    return tokens
