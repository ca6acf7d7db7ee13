"""The XPath subset ``xmi2cnx.xsl`` uses: lexer, parser, data model,
compiler, five core functions.

This package is the query language under the XSLT engine, and says only
what the one stylesheet says; anything else it refuses by name (see
:mod:`repro.xslt.xpath.parser` and :mod:`repro.xslt.xpath.functions`).
Typical use::

    from repro.xslt.xpath import Context, build_document, evaluate

    doc = build_document("<a><b x='1'/><b x='2'/></a>")
    nodes = evaluate("//b[@x = '2']", Context(doc))

``compile(expr)`` returns the compiled function ``evaluate`` runs, for
callers that evaluate one expression in many contexts.
"""

from .datamodel import build_document
from .evaluator import Context, evaluate

__all__ = ["build_document", "Context", "evaluate"]
