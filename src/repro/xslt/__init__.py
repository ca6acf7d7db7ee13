"""A from-scratch XSLT 1.0 subset engine with its own XPath 1.0 evaluator.

The paper's tools (XMI2CNX, CNX2Java) are XSL transformations; this
package lets the repository run the real stylesheets offline, with no
dependency beyond the standard library.

Quick use::

    from repro.xslt import Stylesheet, Transformer

    sheet = Stylesheet.from_string(XSL_SOURCE)
    result = Transformer(sheet).transform(XML_SOURCE)

See :mod:`repro.xslt.engine` for the supported instruction set.
"""

from .engine import ResultTreeFragment, Stylesheet, Transformer, XsltError
from .output import OutputSettings, serialize
from .patterns import Pattern, PatternError, compile_pattern

__all__ = [
    "Stylesheet",
    "Transformer",
    "XsltError",
    "ResultTreeFragment",
    "Pattern",
    "PatternError",
    "compile_pattern",
    "OutputSettings",
    "serialize",
]
