"""Structured diagnostics: the output vocabulary of every analysis pass.

A :class:`Diagnostic` is one finding: a stable error code (``CNxxx``
from cnlint, the model analyzer, or ``CCxxx`` from conclint, the
concurrency analyzer), a severity, a human message, a
:class:`SourceLocation` pointing into the originating XMI/CNX element or
Python source line, and an optional fix hint.  A :class:`Report` is the
ordered collection a full analysis produces, with filtering and
rendering helpers shared by the CLIs, the pipeline and the portal.
Both analyzers share this one model, so the portal diagnostics artifact
and ``--json`` output use a single schema regardless of which tool
produced a finding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["Severity", "SourceLocation", "Diagnostic", "Report"]


class Severity(enum.Enum):
    """Finding severity.  ERROR findings make submission refuse the
    composition; WARNING findings pass through with a notice."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceLocation:
    """Where a finding anchors in the originating document.

    ``source`` names the representation the composition was extracted
    from (``cnx`` | ``xmi`` | ``model``, or a file path for source-level
    findings); ``path`` is an XPath-flavored pointer into that document
    (e.g. ``client/job[1]/task[@name='tctask1']/@depends``) or a
    ``Class.method`` qualifier for Python source.  ``line`` is the
    1-based source line for findings that anchor to one (0 = no line
    information; model-level findings keep the historical two-part
    rendering)."""

    source: str = ""
    path: str = ""
    line: int = 0

    def __str__(self) -> str:
        suffix = f":{self.line}" if self.line else ""
        if not self.path:
            return (self.source or "<unknown>") + suffix
        joined = f"{self.source}:{self.path}" if self.source else self.path
        return joined + suffix


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    hint: str = ""
    pass_name: str = ""

    @property
    def tool(self) -> str:
        """The analyzer that produced this finding: ``CN###`` is cnlint's
        (the model passes), ``CC###`` conclint's (the concurrency passes)."""
        return "conclint" if self.code.startswith("CC") else "cnlint"

    def render(self, *, with_hint: bool = True) -> str:
        line = f"{self.code} {self.severity.value:<7} {self.location}  {self.message}"
        if with_hint and self.hint:
            line += f"\n      hint: {self.hint}"
        return line

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": str(self.location),
            "hint": self.hint,
            "pass": self.pass_name,
            "tool": self.tool,
            "line": self.location.line,
        }


class Report:
    """The diagnostics of one analysis run, in pass order."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    # -- collection ----------------------------------------------------------
    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # -- filtering ---------------------------------------------------------
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    @property
    def ok(self) -> bool:
        """True when no error-severity findings exist."""
        return not self.errors()

    # -- rendering ---------------------------------------------------------
    def summary(self) -> str:
        return f"{len(self.errors())} error(s), {len(self.warnings())} warning(s)"

    def render(self, *, title: str = "", with_hints: bool = True) -> str:
        head = f"{title}: {self.summary()}" if title else self.summary()
        if not self.diagnostics:
            return head
        body = "\n".join(
            "  " + d.render(with_hint=with_hints) for d in self.diagnostics
        )
        return f"{head}\n{body}"

    def to_json(self) -> list[dict[str, Any]]:
        return [d.to_dict() for d in self.diagnostics]

    def __repr__(self) -> str:
        return f"<Report {self.summary()}>"
