"""The model-to-execution pipeline (paper Fig. 6).

One call runs all six steps the paper describes:

1. the UML model for the CN computation, checked once, by cnlint,
2. export as an XMI document,
3. XMI -> CNX client descriptor (XSL transformation),
4. CNX -> client program in the target language (Python here),
5. deployment of the client program + task archives to a CN server,
6. execution of the client computation by the CN server.

Every intermediate artifact is kept on the :class:`PipelineResult` so
tests, benchmarks and the web portal can inspect or export them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.analysis import AnalysisContext, Report, analyze_model
from repro.cn.cluster import Cluster
from repro.cn.errors import CnxValidationError
from repro.cn.registry import TaskRegistry

from ..cnx.emitter import emit as emit_cnx
from ..cnx.schema import CnxDocument
from ..uml.activity import ActivityGraph
from ..uml.model import Model
from ..uml.tags import CNProfile
from ..xmi.writer import write_model
from .cnx2code import GeneratedClient, cnx_to_java, cnx_to_python
from .xmi2cnx import xmi_to_cnx

__all__ = ["Pipeline", "PipelineResult", "run_pipeline"]

#: what step 1 accepts: a model, or one activity graph as a one-job model
Source = Union[Model, ActivityGraph]


@dataclass
class PipelineResult:
    """All artifacts of one pipeline run, in production order."""

    model: Model
    xmi_text: str
    cnx_doc: CnxDocument
    cnx_text: str
    python_source: str
    java_source: str
    job_results: list[dict[str, Any]] = field(default_factory=list)
    step_seconds: dict[str, float] = field(default_factory=dict)
    #: cnlint's findings on the model: warnings only, an error refuses it
    report: Report = field(default_factory=Report)

    @property
    def results(self) -> dict[str, Any]:
        """Task results of the first job (the common single-job case)."""
        return self.job_results[0] if self.job_results else {}


class Pipeline:
    """The Fig. 6 pipeline: ``xmi2cnx.xsl`` on the in-repo XSLT engine,
    then the CNX2Py / CNX2Java generators.  ``log`` and ``port``
    are the client attributes written into the descriptor."""

    def __init__(
        self, *, log: str = CNProfile.LOG.default, port: int = CNProfile.PORT.default
    ) -> None:
        least, most = CNProfile.PORT.least, CNProfile.PORT.most
        if not least <= port <= most:
            raise ValueError(f"client port {port} out of range ({least}..{most})")
        self.log = log
        self.port = port

    # -- individual steps ---------------------------------------------------
    def check(
        self, source: Source, cluster: Optional[Cluster] = None
    ) -> tuple[Model, Report]:
        """Step 1: the model and cnlint's report on it, against *cluster*'s
        shape and registry when there is one -- the path's one check.  An
        error refuses it: :class:`CnxValidationError` carries the report."""
        if isinstance(source, ActivityGraph):
            model = Model(source.name)
            model.new_package("cn").add_graph(source)
        else:
            model = source
        context = AnalysisContext.for_cluster(cluster) if cluster is not None else None
        report = analyze_model(model, context)
        CnxValidationError.raise_for(report)
        return model, report

    def to_model(self, source: Source) -> Model:
        """Step 1 without the report (:meth:`check`)."""
        return self.check(source)[0]

    def export_xmi(self, model: Model) -> str:
        """Step 2: export the model as XMI."""
        return write_model(model)

    def to_cnx(self, xmi_text: str) -> CnxDocument:
        """Step 3: XMI -> CNX (the XSL transformation) of a checked model."""
        return xmi_to_cnx(xmi_text, log=self.log, port=self.port)

    def to_client(self, doc: CnxDocument) -> str:
        """Step 4: CNX -> Python client program source."""
        return cnx_to_python(doc)

    def to_java(self, doc: CnxDocument) -> str:
        """Step 4 (Java target): CNX -> Java client source."""
        return cnx_to_java(doc)

    def deploy(self, python_source: str) -> GeneratedClient:
        """Step 5: 'deploy' the client (compile it against the CN API)."""
        return GeneratedClient(python_source)

    # -- whole pipeline ---------------------------------------------------------
    def run(
        self,
        source: Source,
        cluster: Optional[Cluster] = None,
        *,
        registry: Optional[TaskRegistry] = None,
        runtime_args: Optional[Mapping[str, Any]] = None,
        timeout: float = 60.0,
        execute: bool = True,
    ) -> PipelineResult:
        """Run steps 1-6; with ``execute=False`` stop after generation.
        *cluster*, when given, is also what step 1 checks against.  An
        exception raised after step 1 carries its report as ``.report``:
        a warning may be what explains the failure."""
        timings: dict[str, float] = {}

        def timed(step: str, fn, *args):
            start = time.perf_counter()
            value = fn(*args)
            timings[step] = time.perf_counter() - start
            return value

        model, report = timed("1-model", self.check, source, cluster)
        try:
            xmi_text = timed("2-xmi", self.export_xmi, model)
            cnx_doc = timed("3-cnx", self.to_cnx, xmi_text)
            cnx_text = emit_cnx(cnx_doc)
            python_source = timed("4-codegen", self.to_client, cnx_doc)
            java_source = self.to_java(cnx_doc)
            result = PipelineResult(
                model=model,
                xmi_text=xmi_text,
                cnx_doc=cnx_doc,
                cnx_text=cnx_text,
                python_source=python_source,
                java_source=java_source,
                step_seconds=timings,
                report=report,
            )
            if not execute:
                return result
            client = timed("5-deploy", self.deploy, python_source)
            owns_cluster = cluster is None
            if owns_cluster:
                cluster = Cluster(4, registry=registry)
            try:
                start = time.perf_counter()
                result.job_results = client.run(cluster, runtime_args, timeout)
                timings["6-execute"] = time.perf_counter() - start
            finally:
                if owns_cluster:
                    cluster.shutdown()
            return result
        except Exception as failure:  # conclint: waive CC302 -- annotated with step 1's report and re-raised
            failure.report = report
            raise


def run_pipeline(
    source: Source,
    cluster: Optional[Cluster] = None,
    **kwargs: Any,
) -> PipelineResult:
    """Convenience wrapper: ``Pipeline().run(source, cluster, **kwargs)``."""
    return Pipeline().run(source, cluster, **kwargs)
