"""Compatibility names for CNX validation.

The checks live in the static analyzer, :mod:`repro.analysis` -- one
diagnostics engine shared by the ``python -m repro.analysis`` CLI, the
client runner, the pipeline and the portal -- and the error class in
:mod:`repro.cn.errors`.  :func:`collect_problems` and :func:`validate`
are the historical entry points over :func:`repro.analysis.analyze_cnx`
(error-severity findings, rendered in the historical message format);
call the analyzer directly for structured
:class:`~repro.analysis.Diagnostic` records with stable ``CNxxx`` codes,
source locations and fix hints.
"""

from __future__ import annotations

from repro.cn.errors import CnxValidationError

from .schema import CnxDocument

__all__ = ["CnxValidationError", "validate", "collect_problems"]


def collect_problems(doc: CnxDocument) -> list[str]:
    """Error-severity analyzer findings as plain message strings."""
    from repro.analysis import analyze_cnx

    return analyze_cnx(doc).legacy_problems()


def validate(doc: CnxDocument) -> CnxDocument:
    """Raise :class:`CnxValidationError` on error-severity findings;
    warnings pass through silently here."""
    from repro.analysis import analyze_cnx

    CnxValidationError.raise_for(analyze_cnx(doc))
    return doc
