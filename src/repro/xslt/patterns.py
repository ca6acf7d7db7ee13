"""XSLT 1.0 match patterns.

A pattern is a ``|``-separated list of *location path patterns* -- the
syntactic subset of XPath where only the ``child`` and ``attribute`` axes
and the ``//`` shorthand appear.  We reuse the XPath parser and then
*verify* the parsed tree stays inside the pattern subset, which keeps the
two grammars from drifting apart.

Matching is implemented by walking the pattern's steps right-to-left up
the node's ancestor chain (the standard technique): the last step must
match the node itself, each preceding step must match the parent (or,
across a ``//`` separator, *some* ancestor), and an absolute pattern must
finally land on the document root.

Positional predicates inside patterns (``task[2]``) are evaluated with
the candidate's position among like-named siblings, per the XSLT spec's
definition of pattern predicate context.
"""

from __future__ import annotations

from typing import Callable, Optional

from .xpath.ast import Expr, LocationPath, NameTest, NodeTypeTest, Step, UnionExpr
from .xpath.datamodel import XNode
from .xpath.evaluator import Context, _node_test, compile, is_descendant_skip
from .xpath.functions import to_boolean
from .xpath.parser import parse

__all__ = ["Pattern", "PatternError", "compile_pattern"]


class PatternError(ValueError):
    """Raised when an expression is not a legal XSLT match pattern."""


def _lower_step_match(step: Step) -> Callable[[XNode, Context], bool]:
    """One pattern step as ``(node, context) -> bool``: the node test is
    resolved here, the predicates are compiled here, and matching only
    does what depends on the node."""
    test = _node_test(step.node_test, step.axis)
    if not step.predicates:
        return lambda node, context: test(node)
    predicates = tuple(compile(pred) for pred in step.predicates)
    on_attributes = step.axis == "attribute"

    def match(node: XNode, context: Context) -> bool:
        if not test(node):
            return False
        # Candidate set = like siblings along the child/attribute axis.
        if on_attributes:
            siblings = node.parent.attributes() if node.parent else [node]
        else:
            siblings = node.parent.children() if node.parent else [node]
        candidates = [s for s in siblings if test(s)]
        try:
            position = candidates.index(node) + 1
        except ValueError:  # pragma: no cover - defensive
            return False
        sub = Context(node, position, len(candidates), context.variables, context.functions)
        for predicate in predicates:
            value = predicate(sub)
            if isinstance(value, float):
                if value != position:
                    return False
            elif not to_boolean(value):
                return False
        return True

    return match


class _PathPattern:
    """One location path pattern, lowered at construction."""

    def __init__(self, absolute: bool, steps: tuple[Step, ...]) -> None:
        self.absolute = absolute
        self.steps = steps
        # None marks a '//' separator
        self._step_matches = tuple(
            None if is_descendant_skip(step) else _lower_step_match(step)
            for step in steps
        )
        #: whether matching can raise: only a predicate can
        self.fallible = any(step.predicates for step in steps)
        #: whether every node with :meth:`dispatch_key` matches (a bare
        #: ``/``, or one predicate-free step that is not ``prefix:*``)
        self.decided_by_key = (absolute and not steps) or (
            not absolute
            and len(steps) == 1
            and not steps[0].predicates
            and not (
                isinstance(steps[0].node_test, NameTest)
                and steps[0].node_test.prefix_wildcard is not None
            )
        )

    def default_priority(self) -> float:
        """Default priority per XSLT 1.0 section 5.5."""
        if self.absolute and not self.steps:
            return 0.5  # match="/"
        if len(self.steps) != 1 or self.absolute:
            return 0.5
        step = self.steps[0]
        if step.predicates:
            return 0.5
        test = step.node_test
        if isinstance(test, NameTest):
            if test.is_wildcard:
                return -0.5
            if test.prefix_wildcard is not None:
                return -0.25
            return 0.0
        assert isinstance(test, NodeTypeTest)
        if test.node_type == "processing-instruction" and test.literal:
            return 0.0
        return -0.5

    def dispatch_key(self) -> tuple[Optional[str], Optional[str]]:
        """``(node kind, name)`` shared by every node this pattern can
        match; None in either place means "any"."""
        if not self.steps:
            return ("document", None)
        step = self.steps[-1]
        test = step.node_test
        if isinstance(test, NodeTypeTest):
            return (None, None) if test.node_type == "node" else (test.node_type, None)
        kind = "attribute" if step.axis == "attribute" else "element"
        if test.is_wildcard or test.prefix_wildcard is not None:
            return (kind, None)
        return (kind, test.name)

    def matches(self, node: XNode, context: Context) -> bool:
        if not self.steps:
            # match="/"
            return self.absolute and node.node_type == "document"
        return self._match_steps(node, len(self.steps) - 1, context)

    def _match_steps(self, node: XNode, index: int, context: Context) -> bool:
        step_match = self._step_matches[index]
        if step_match is None:
            # '//' separator: some ancestor-or-self must match the rest.
            probe: Optional[XNode] = node
            while probe is not None:
                if index == 0:
                    # leading '//' -- always anchored at the root, fine.
                    return True
                if self._match_steps(probe, index - 1, context):
                    return True
                probe = probe.parent
            return False
        if not step_match(node, context):
            return False
        if index == 0:
            if self.absolute:
                return node.parent is not None and node.parent.node_type == "document"
            return True
        parent = node.parent
        if parent is None:
            return False
        return self._match_steps(parent, index - 1, context)


class Pattern:
    """A compiled match pattern (possibly a union of alternatives)."""

    def __init__(self, source: str, alternatives: tuple[_PathPattern, ...]) -> None:
        self.source = source
        self.alternatives = alternatives

    def __repr__(self) -> str:
        return f"Pattern({self.source!r})"

    def matches(self, node: XNode, context: Context) -> bool:
        return any(alt.matches(node, context) for alt in self.alternatives)

    def default_priority(self) -> float:
        """For union patterns XSLT treats each alternative as its own rule;
        callers that need per-alternative priorities should split the
        pattern.  We conservatively report the max."""
        return max(alt.default_priority() for alt in self.alternatives)

    def split(self) -> list["Pattern"]:
        """One :class:`Pattern` per union alternative."""
        return [Pattern(self.source, (alt,)) for alt in self.alternatives]


_ALLOWED_AXES = ("child", "attribute", "descendant-or-self", "self")


def _check_path(expr: Expr, source: str) -> _PathPattern:
    if not isinstance(expr, LocationPath):
        raise PatternError(f"not a location path pattern: {source!r}")
    for step in expr.steps:
        if step.axis not in _ALLOWED_AXES:
            raise PatternError(
                f"axis {step.axis!r} not allowed in pattern {source!r}"
            )
    return _PathPattern(expr.absolute, expr.steps)


def compile_pattern(source: str) -> Pattern:
    """Compile a match pattern string."""
    tree = parse(source)
    if isinstance(tree, UnionExpr):
        alts = tuple(_check_path(p, source) for p in tree.parts)
    else:
        alts = (_check_path(tree, source),)
    return Pattern(source, alts)
