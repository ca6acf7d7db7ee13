"""The XPath subset ``xmi2cnx.xsl`` uses: lexer, parser, data model,
evaluator, five core functions.

This package is the query language under the XSLT engine, and says only
what the one stylesheet says; anything else it refuses by name (see
:mod:`repro.xslt.xpath.parser` and :mod:`repro.xslt.xpath.functions`).
Typical use::

    from repro.xslt.xpath import Context, build_document, evaluate

    doc = build_document("<a><b x='1'/><b x='2'/></a>")
    nodes = evaluate("//b[@x = '2']", Context(doc))

``compile(expr)`` returns the closure ``evaluate`` runs, for callers
that evaluate one expression in many contexts.
"""

from .datamodel import XAttribute, XDocument, XElement, XNode, XText, build_document
from .evaluator import Context, XPathEvalError, compile, evaluate
from .functions import (
    ARITY,
    CORE_FUNCTIONS,
    XPathTypeError,
    to_boolean,
    to_nodeset,
    to_number,
    to_string,
)
from .lexer import XPathLexError, tokenize
from .parser import XPathSyntaxError, parse

__all__ = [
    "XNode",
    "XDocument",
    "XElement",
    "XAttribute",
    "XText",
    "build_document",
    "Context",
    "compile",
    "evaluate",
    "parse",
    "tokenize",
    "ARITY",
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
