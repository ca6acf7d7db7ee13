"""XPath 1.0 subset: lexer, parser, data model, evaluator, core functions.

This package is the query substrate under the XSLT engine (and is usable
standalone).  Typical use::

    from repro.xslt.xpath import Context, build_document, evaluate

    doc = build_document("<a><b x='1'/><b x='2'/></a>")
    nodes = evaluate("//b[@x='2']", Context(doc))

``compile(expr)`` returns the closure ``evaluate`` runs, for callers
that evaluate one expression in many contexts.
"""

from .datamodel import (
    XAttribute,
    XComment,
    XDocument,
    XElement,
    XNode,
    XText,
    build_document,
)
from .evaluator import (
    Context,
    XPathEvalError,
    compile,
    evaluate,
    evaluate_boolean,
    evaluate_nodeset,
    evaluate_number,
    evaluate_string,
    node_test_matches,
)
from .functions import CORE_FUNCTIONS, XPathTypeError, to_boolean, to_nodeset, to_number, to_string
from .lexer import XPathLexError, tokenize
from .parser import XPathSyntaxError, parse

__all__ = [
    "XNode",
    "XDocument",
    "XElement",
    "XAttribute",
    "XText",
    "XComment",
    "build_document",
    "Context",
    "compile",
    "evaluate",
    "evaluate_nodeset",
    "evaluate_string",
    "evaluate_boolean",
    "evaluate_number",
    "node_test_matches",
    "parse",
    "tokenize",
    "CORE_FUNCTIONS",
    "to_string",
    "to_number",
    "to_boolean",
    "to_nodeset",
    "XPathLexError",
    "XPathSyntaxError",
    "XPathEvalError",
    "XPathTypeError",
]
