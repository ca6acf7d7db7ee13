"""Parse CNX XML into the document model.

Inverse of :mod:`repro.core.cnx.emitter`.  Tolerates both element orders
seen in paper Fig. 2 (``task-req`` before or after ``param``) and
missing optional attributes, but raises :class:`CnxParseError` on
structural problems so malformed descriptors never reach the runtime.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from ..uml.tags import CNProfile, split_names
from .schema import (
    CnxClient,
    CnxDocument,
    CnxJob,
    CnxParam,
    CnxTask,
    CnxTaskReq,
)

__all__ = ["CnxParseError", "parse", "parse_element"]


class CnxParseError(ValueError):
    """Raised on malformed CNX documents."""


def parse(text: str) -> CnxDocument:
    """Parse a CNX descriptor string."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CnxParseError(f"not well-formed XML: {exc}") from exc
    return parse_element(root)


def parse_element(root: ET.Element) -> CnxDocument:
    if root.tag != "cn2":
        raise CnxParseError(f"expected <cn2> root, found <{root.tag}>")
    client_elems = root.findall("client")
    if len(client_elems) != 1:
        raise CnxParseError(f"expected exactly one <client>, found {len(client_elems)}")
    client_elem = client_elems[0]
    cls = client_elem.get("class")
    if not cls:
        raise CnxParseError("<client> missing class attribute")
    port_text = client_elem.get("port", str(CNProfile.PORT.default))
    try:
        port = int(port_text)
    except ValueError:
        raise CnxParseError(f"<client> port is not an integer: {port_text!r}") from None
    client = CnxClient(cls=cls, log=client_elem.get("log", ""), port=port)
    for job_elem in client_elem.findall("job"):
        client.jobs.append(_parse_job(job_elem))
    if not client.jobs:
        raise CnxParseError("<client> contains no <job>")
    return CnxDocument(client)


def _parse_job(job_elem: ET.Element) -> CnxJob:
    job = CnxJob(
        name=job_elem.get("name", ""), after=split_names(job_elem.get("after", ""))
    )
    for task_elem in job_elem.findall("task"):
        job.tasks.append(_parse_task(task_elem))
    if not job.tasks:
        raise CnxParseError("<job> contains no <task>")
    return job


def _parse_task(task_elem: ET.Element) -> CnxTask:
    name = task_elem.get("name")
    jar = task_elem.get("jar")
    cls = task_elem.get("class")
    if not name:
        raise CnxParseError("<task> missing name attribute")
    if not jar:
        raise CnxParseError(f"task {name!r} missing jar attribute")
    if not cls:
        raise CnxParseError(f"task {name!r} missing class attribute")
    task = CnxTask(
        name=name,
        jar=jar,
        cls=cls,
        depends=split_names(task_elem.get("depends", "")),
        dynamic=task_elem.get("dynamic", "false") == "true",
        multiplicity=task_elem.get("multiplicity", ""),
        arguments=task_elem.get("arguments", ""),
        sends=split_names(task_elem.get("sends", "")),
        receives=split_names(task_elem.get("receives", "")),
    )
    req_elems = task_elem.findall("task-req")
    if len(req_elems) > 1:
        raise CnxParseError(f"task {name!r} has {len(req_elems)} <task-req> blocks")
    if req_elems:
        task.task_req = _parse_task_req(name, req_elems[0])
    for param_elem in task_elem.findall("param"):
        ptype = param_elem.get("type", "String")
        task.params.append(CnxParam(type=ptype, value=param_elem.text or ""))
    return task


def _parse_task_req(task_name: str, req_elem: ET.Element) -> CnxTaskReq:
    req = CnxTaskReq()
    for field in CNProfile.TASK:
        if not field.cnx.startswith("task-req/"):
            continue
        elem = req_elem.find(field.tag)
        if elem is None or not elem.text:
            continue
        value = elem.text.strip()
        if field.kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise CnxParseError(
                    f"task {task_name!r} has non-integer {field.tag} {elem.text!r}"
                ) from None
        setattr(req, field.tag, value)
    return req
