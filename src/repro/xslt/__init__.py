"""A from-scratch XSLT 1.0 subset engine with its own XPath evaluator.

The paper's XMI2CNX tool is an XSL transformation; this package runs the
real stylesheet (``xmi2cnx.xsl``) offline, with no dependency beyond the
standard library.  It takes the XSLT instructions and the XPath subset
``xmi2cnx.xsl`` uses, and refuses anything else by name.

Quick use::

    from repro.xslt import Stylesheet, Transformer

    sheet = Stylesheet.from_string(XSL_SOURCE)
    result = Transformer(sheet).transform(XML_SOURCE)

See :mod:`repro.xslt.engine` for the supported instruction set.
"""

from .engine import Stylesheet, Transformer

__all__ = ["Stylesheet", "Transformer"]
