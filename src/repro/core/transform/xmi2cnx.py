"""XMI -> CNX transformation (paper section 5, step 3).

:func:`xmi_to_cnx` is the transformation: the ``xmi2cnx.xsl``
stylesheet on the in-repo XSLT engine, as in the paper's tool, run on
XMI text or on the rows :func:`xmi_document` builds from the writer's
calls, as :class:`~repro.core.transform.pipeline.Pipeline` does.
:func:`xmi_to_cnx_native`, a direct Python transformer over the parsed
UML model, is its differential-testing oracle: nothing selects it, the
test suite and ``benchmarks.e2e`` call it to check that both agree.
"""

from __future__ import annotations

from pathlib import Path

from repro.xslt import Stylesheet, Transformer
from repro.xslt.xpath.datamodel import XDocument, build_document

from ..cnx.parser import parse as parse_cnx
from ..cnx.schema import (
    CnxClient,
    CnxDocument,
    CnxJob,
    CnxParam,
    CnxTask,
    CnxTaskReq,
)
from ..uml.activity import ActivityGraph
from ..uml.model import Model
from ..uml.tags import CNProfile, split_names
from ..xmi.reader import read_model
from ..xmi.writer import XmiWriter

__all__ = [
    "STYLESHEET_DIR",
    "xmi_to_cnx",
    "xmi_to_cnx_text",
    "xmi_to_cnx_native",
    "xmi_document",
    "model_to_cnx",
    "load_stylesheet",
]

STYLESHEET_DIR = Path(__file__).parent / "stylesheets"

#: the client attributes every entry point below writes unless told otherwise
_LOG, _PORT = CNProfile.LOG.default, CNProfile.PORT.default

_sheet_cache: dict[str, Stylesheet] = {}


def load_stylesheet(name: str) -> Stylesheet:
    """Load (and cache) a packaged stylesheet by file name."""
    sheet = _sheet_cache.get(name)
    if sheet is None:
        sheet = Stylesheet.from_file(STYLESHEET_DIR / name)
        _sheet_cache[name] = sheet
    return sheet


def xmi_document(model: Model) -> XDocument:
    """The XMI of *model* as the rows step 3 reads, built from the writer's
    calls: the rows ``write_model(model)``'s text gives, with no text."""
    strips = load_stylesheet("xmi2cnx.xsl").compiled().strips
    return build_document(XmiWriter(model).write, strips=strips)


def xmi_to_cnx_text(
    xmi_text: str | XDocument, *, log: str = _LOG, port: int = _PORT
) -> str:
    """Run the XMI2CNX stylesheet on XMI text or rows; returns the CNX text."""
    sheet = load_stylesheet("xmi2cnx.xsl")
    transformer = Transformer(sheet)
    return transformer.transform(xmi_text, params={"log": log, "port": str(port)})


def xmi_to_cnx(
    xmi_text: str | XDocument, *, log: str = _LOG, port: int = _PORT
) -> CnxDocument:
    """XSLT path: XMI -> parsed CNX document model."""
    return parse_cnx(xmi_to_cnx_text(xmi_text, log=log, port=port))


def xmi_to_cnx_native(
    xmi_text: str, *, log: str = _LOG, port: int = _PORT
) -> CnxDocument:
    """Native path: parse the XMI into the UML model and convert directly."""
    model = read_model(xmi_text)
    return model_to_cnx(model, log=log, port=port)


def model_to_cnx(
    model: Model, *, log: str = _LOG, port: int = _PORT
) -> CnxDocument:
    """Convert every activity graph of *model* into one CNX client.

    When a package declares a job partial order (paper section 4), the
    participating jobs are emitted with ``name``/``after`` attributes;
    otherwise jobs stay anonymous (Fig. 2 byte-compatibility)."""
    graphs = model.all_graphs()
    if not graphs:
        raise ValueError(f"model {model.name!r} contains no activity graphs")
    client = CnxClient(cls=graphs[0].name, log=log, port=port)
    after = model.job_after()
    for graph in graphs:
        job = _graph_to_job(graph)
        if graph.name in after:
            job.name = graph.name
            job.after = list(after[graph.name])
        client.jobs.append(job)
    return CnxDocument(client)


def _graph_to_job(graph: ActivityGraph) -> CnxJob:
    deps = graph.action_dependencies()
    # paper Fig. 2 shows a bare <job> element: jobs are positional, so the
    # converted job carries no name (keeps XSLT and native output identical)
    job = CnxJob(name="")
    for action in graph.action_states():
        raw, params, param_problem = CNProfile.read(action)
        if param_problem:
            raise ValueError(param_problem)
        job.tasks.append(
            CnxTask(
                name=action.name,
                jar=raw["jar"],
                cls=raw["class"],
                depends=list(deps[action.name]),
                task_req=CnxTaskReq(
                    memory=int(raw["memory"]),
                    runmodel=raw["runmodel"],
                    retries=int(raw["retries"]),
                ),
                params=[CnxParam(type=ptype, value=value) for ptype, value in params],
                dynamic=action.is_dynamic,
                multiplicity=raw["multiplicity"],
                arguments=raw["arguments"],
                sends=split_names(raw["sends"]),
                receives=split_names(raw["receives"]),
            )
        )
    return job
