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

Every finding is a structured :class:`Diagnostic` (stable ``CNxxx``
code, severity, source location in the originating element, fix hint).
``python -m repro.analysis`` exposes the analyzer on the command line.  A
composition is checked once, where it enters: a model at step 1 of
:class:`repro.core.transform.Pipeline` (the portal's and ``cn-pipeline``'s
way in), refused with :class:`repro.cn.errors.CnxValidationError`.
"""

from .diagnostics import Diagnostic, Report, Severity, SourceLocation
from .ir import (
    ClusterSpec,
    Composition,
    JobGraph,
    TaskNode,
    from_cnx,
    from_graph,
    from_model,
    from_xmi,
)
from .passes import (
    AnalysisContext,
    AnalysisPass,
    analyze,
    analyze_cnx,
    analyze_model,
    analyze_source,
    default_passes,
)

__all__ = [
    "Severity",
    "SourceLocation",
    "Diagnostic",
    "Report",
    "TaskNode",
    "JobGraph",
    "Composition",
    "ClusterSpec",
    "from_cnx",
    "from_graph",
    "from_model",
    "from_xmi",
    "AnalysisContext",
    "AnalysisPass",
    "analyze",
    "analyze_cnx",
    "analyze_model",
    "analyze_source",
    "default_passes",
]
