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
from dataclasses import dataclass

__all__ = ["Token", "XPathLexError", "tokenize", "NODE_TYPES"]

NODE_TYPES = ("comment", "text", "processing-instruction", "node")

_OPERATOR_NAMES = ("and", "or", "mod", "div")

# Longest-match token table for punctuation.
_PUNCT = [
    "..",
    "::",
    "//",
    "!=",
    "<=",
    ">=",
    "(",
    ")",
    "[",
    "]",
    ".",
    "@",
    ",",
    "/",
    "|",
    "+",
    "-",
    "=",
    "<",
    ">",
    "*",
    "$",
]

_NCNAME = r"[A-Za-z_][\w.-]*"
_QNAME_RE = re.compile(rf"({_NCNAME}):({_NCNAME}|\*)|({_NCNAME})")
_NUMBER_RE = re.compile(r"(\d+(\.\d*)?)|(\.\d+)")
_WS_RE = re.compile(r"\s+")


class XPathLexError(ValueError):
    """Raised when the expression contains an unrecognized character."""


@dataclass(frozen=True)
class Token:
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
    i, n = 0, len(expr)
    while i < n:
        ws = _WS_RE.match(expr, i)
        if ws:
            i = ws.end()
            continue
        ch = expr[i]
        # String literal
        if ch in ("'", '"'):
            end = expr.find(ch, i + 1)
            if end < 0:
                raise XPathLexError(f"unterminated literal at {i} in {expr!r}")
            tokens.append(Token("literal", expr[i + 1 : end], i))
            i = end + 1
            continue
        # Number
        num = _NUMBER_RE.match(expr, i)
        if num and (ch.isdigit() or (ch == "." and i + 1 < n and expr[i + 1].isdigit())):
            tokens.append(Token("number", num.group(0), i))
            i = num.end()
            continue
        # Variable reference
        if ch == "$":
            qname = _QNAME_RE.match(expr, i + 1)
            if not qname:
                raise XPathLexError(f"bad variable reference at {i} in {expr!r}")
            tokens.append(Token("variable", qname.group(0), i))
            i = qname.end()
            continue
        # Names (QName / NCName / prefix:*)
        if ch.isalpha() or ch == "_":
            qname = _QNAME_RE.match(expr, i)
            assert qname is not None
            name = qname.group(0)
            end = qname.end()
            # operator-name disambiguation
            if name in _OPERATOR_NAMES and _preceded_by_operand(tokens):
                tokens.append(Token("operator", name, i))
                i = end
                continue
            # Look ahead past whitespace
            j = end
            while j < n and expr[j].isspace():
                j += 1
            if expr[j : j + 2] == "::":
                tokens.append(Token("axis", name, i))
                i = j + 2
                continue
            if j < n and expr[j] == "(":
                if name in NODE_TYPES:
                    tokens.append(Token("nodetype", name, i))
                else:
                    tokens.append(Token("function", name, i))
                i = end
                continue
            if name.endswith(":*"):
                tokens.append(Token("wildcard", name, i))
            else:
                tokens.append(Token("name", name, i))
            i = end
            continue
        # Punctuation / operators
        for punct in _PUNCT:
            if expr.startswith(punct, i):
                if punct == "*" and _preceded_by_operand(tokens):
                    tokens.append(Token("operator", "*", i))
                elif punct == "*":
                    tokens.append(Token("wildcard", "*", i))
                elif punct in ("+", "-", "=", "!=", "<", "<=", ">", ">=", "|"):
                    tokens.append(Token("operator", punct, i))
                else:
                    tokens.append(Token("punct", punct, i))
                i += len(punct)
                break
        else:
            raise XPathLexError(f"unexpected character {ch!r} at {i} in {expr!r}")
    return tokens
