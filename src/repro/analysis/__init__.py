"""cnlint: multi-pass static analysis of CN job compositions.

The paper's value proposition is catching composition errors *before* a
job reaches the cluster.  This package is the diagnostics engine behind
that promise: it extracts a common :class:`~repro.analysis.ir.JobGraph`
IR from any of the three pipeline representations (UML activity model,
XMI document, CNX descriptor) and runs a battery of analysis passes over
it -- structure (cycles, orphans, duplicate ids, dangling ``depends``),
configuration schema (tagged-value types, archive/class references),
dynamic-invocation multiplicity bounds, splitter/joiner fan shape,
client-level job ordering, message-flow deadlock, and placement
feasibility against a cluster spec.

Every finding is a structured
:class:`~repro.analysis.diagnostics.Diagnostic` (stable ``CNxxx``
code, severity, source location in the originating element, fix hint).
``python -m repro.analysis`` exposes the analyzer on the command line.  A
composition is checked once, where it enters: a model at step 1 of
:class:`repro.core.transform.Pipeline` (the portal's and ``cn-pipeline``'s
way in), refused with :class:`repro.cn.errors.CnxValidationError`.
"""

from .diagnostics import Report
from .ir import ClusterSpec, from_cnx
from .passes import AnalysisContext, analyze_cnx, analyze_model

__all__ = [
    "Report",
    "ClusterSpec",
    "from_cnx",
    "AnalysisContext",
    "analyze_cnx",
    "analyze_model",
]
