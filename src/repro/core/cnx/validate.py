"""Compatibility name for CNX validation: :func:`validate` over
:func:`repro.analysis.analyze_cnx`, which returns the whole report."""

from __future__ import annotations

from repro.cn.errors import CnxValidationError

from .schema import CnxDocument

__all__ = ["CnxValidationError", "validate"]


def validate(doc: CnxDocument) -> CnxDocument:
    """Raise :class:`CnxValidationError` on error-severity findings;
    warnings pass through silently here."""
    from repro.analysis import analyze_cnx

    CnxValidationError.raise_for(analyze_cnx(doc))
    return doc
