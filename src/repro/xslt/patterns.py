"""XSLT 1.0 match patterns, as far as the engine takes them.

A pattern is ``/`` (the document node), one element name (``task``,
``UML:ActionState``) or ``*`` (any element).  Each is decided by the
node's kind and name alone, so a pattern is its dispatch key and
template dispatch is one dict lookup.  The source is parsed with the
XPath parser and the tree checked to be one of these three shapes;
anything else -- a predicate, more than one step, ``//``, an attribute,
or what the parser itself refuses (a union, a node-type test,
``prefix:*``) -- raises :class:`PatternError`.
"""

from __future__ import annotations

from .xpath.ast import LocationPath
from .xpath.lexer import XPathLexError
from .xpath.parser import XPathSyntaxError, parse

__all__ = ["Pattern", "PatternError", "compile_pattern"]


class PatternError(ValueError):
    """Raised when an expression is not a match pattern the engine takes."""


class Pattern:
    """A compiled match pattern."""

    __slots__ = ("source", "key")

    def __init__(self, source: str, key: str) -> None:
        self.source = source
        #: ``/``, an element name, or ``*``
        self.key = key

    def __repr__(self) -> str:
        return f"Pattern({self.source!r})"


def compile_pattern(source: str) -> Pattern:
    """Compile a match pattern string."""
    try:
        tree = parse(source)
    except (XPathLexError, XPathSyntaxError):
        tree = None
    if isinstance(tree, LocationPath):
        if tree.absolute and not tree.steps:
            return Pattern(source, "/")
        if not tree.absolute and len(tree.steps) == 1:
            step = tree.steps[0]
            if step.axis == "child" and not step.predicates:
                return Pattern(source, step.node_test)
    raise PatternError(
        f"unsupported match pattern {source!r}: only '/', one element name or '*'"
    )
