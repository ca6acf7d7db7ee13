"""Web-portal prototype (paper Fig. 1, last component).

"Prototype: Web interface to the CN cluster that accepts UML model in
XMI format, translates the model to an executable, executes [the] model
and displays or makes the results available for download."

Two layers:

* :class:`Portal` -- the in-process service: accepts XMI submissions,
  runs the Fig. 6 pipeline against its cluster, and keeps the newest
  submissions' artifacts (CNX, generated client, results) available for
  download.  This is what tests and the second deployment configuration
  ("through a web portal so that the user does not need to log on to the
  subnet") exercise.
* :class:`PortalHTTPServer` -- a thin stdlib ``http.server`` wrapper
  exposing the same operations over HTTP (POST /submit with the XMI
  document as the request body; GET /submissions; GET
  /submission/<id>/<artifact>).
"""

from __future__ import annotations

import io
import json
import threading
import traceback
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional

from repro.core.cnx import DEFAULT_PORT
from repro.core.transform.pipeline import Pipeline
from repro.core.xmi.reader import read_model

from ..analysis import Report
from ..analysis.conc.runtime import make_lock
from .cluster import Cluster
from .durability import retire
from .errors import CnxValidationError
from .registry import TaskRegistry
from .telemetry import chrome_trace, write_jsonl

__all__ = ["Portal", "Submission", "PortalHTTPServer", "main"]

#: largest request body the HTTP layer will read (anything bigger is
#: refused with 413 before a byte of it is parsed)
MAX_BODY_BYTES = 2 * 1024 * 1024

#: content types accepted on POST /submit.  An absent header and the
#: urllib default (x-www-form-urlencoded) stay accepted for
#: compatibility with existing clients; anything else must look like
#: XML or plain text.
_ACCEPTED_CONTENT_TYPES = (
    "application/x-www-form-urlencoded",
    "application/xml",
    "application/xmi+xml",
    "text/xml",
    "text/plain",
)


@dataclass
class Submission:
    """One XMI submission: what it alone knows, and read-only views built
    when read from where the rest lives (the cnlint report, the chaos
    log, its jobs' journal records and the span store)."""

    submission_id: int
    cluster: Cluster = field(repr=False, compare=False)
    #: pending | rejected | done | failed
    status: str = "pending"
    xmi_text: str = ""
    cnx_text: str = ""
    python_source: str = ""
    java_source: str = ""
    results: list[dict[str, Any]] = field(default_factory=list)
    error: str = ""
    #: cnlint's findings: errors reject the model at the pipeline's step
    #: 1, warnings ride along on any submission past it
    report: Report = field(default_factory=Report)
    #: the jobs this submission's thread created, sorted
    job_ids: list[str] = field(default_factory=list)
    #: the (start, end) positions of this submission's run in the chaos log
    fault_range: tuple[int, int] = (0, 0)

    @property
    def diagnostics(self) -> list[dict[str, Any]]:
        """The report's findings (dicts, see Diagnostic.to_dict)."""
        return self.report.to_json()

    @property
    def fault_events(self) -> list[dict[str, Any]]:
        """Chaos faults injected while this submission ran (dicts, see
        FaultRecord.to_dict); empty when the cluster has no chaos policy."""
        chaos = self.cluster.chaos
        return chaos.log_dicts(*self.fault_range) if chaos is not None else []

    @property
    def failover_events(self) -> list[dict[str, Any]]:
        """Manager-failover adoptions journaled for this submission's jobs."""
        return [
            {
                "job_id": job_id,
                "manager": record.data.get("manager"),
                "previous": record.data.get("previous"),
                "manager_epoch": record.mepoch,
            }
            for job_id, record in self._journaled()
        ]

    @property
    def timeline(self) -> str:
        """Chrome trace_event JSON for this submission's jobs (load in
        chrome://tracing or Perfetto); empty when telemetry is disabled."""
        spans = self._spans()
        return json.dumps(chrome_trace(spans), indent=1) if spans else ""

    @property
    def telemetry_jsonl(self) -> str:
        """The same spans as the JSONL ``python -m repro.telemetry`` reads."""
        buffer = io.StringIO()
        if spans := self._spans():
            write_jsonl(buffer, spans=spans)
        return buffer.getvalue()

    def _journaled(self) -> list[tuple[str, Any]]:
        """Each job's adoptions, as its current manager's replica holds
        them: ``(job_id, record)`` pairs (none for a retired job)."""
        adoptions = []
        for job_id in self.job_ids:
            entry = self.cluster.directory.lookup(job_id)
            journal = entry.manager.journal if entry is not None else None
            for record in journal.records(job_id) if journal is not None else ():
                if record.kind == "job-adopted":
                    adoptions.append((job_id, record))
        return adoptions

    def _spans(self) -> list[Any]:
        """This submission's jobs' spans (trace id == job id)."""
        telemetry = self.cluster.telemetry
        if telemetry is None:
            return []
        return [span for job_id in self.job_ids for span in telemetry.spans.spans(job_id)]

    def artifact(self, name: str) -> Optional[str]:
        """Artifact *name* built now, a list as JSON (None: no such name)."""
        if name not in _ARTIFACTS:
            return None
        value = getattr(self, _ARTIFACTS[name])
        return value if isinstance(value, str) else json.dumps(value, indent=2)

    def artifacts(self) -> dict[str, str]:
        return {name: self.artifact(name) for name in _ARTIFACTS}

    def summary(self) -> dict[str, Any]:
        start, end = self.fault_range
        return {
            "id": self.submission_id,
            "status": self.status,
            "jobs": len(self.results),
            "error": self.error.splitlines()[-1] if self.error else "",
            "diagnostics": len(self.report),
            "faults": end - start,
            "failovers": len(self._journaled()),
        }


#: artifact name -> the Submission attribute it is
_ARTIFACTS = {
    "xmi": "xmi_text", "cnx": "cnx_text", "client.py": "python_source",
    "client.java": "java_source", "diagnostics": "diagnostics",
    "faults": "fault_events", "failovers": "failover_events",
    "timeline": "timeline", "telemetry.jsonl": "telemetry_jsonl",
}


class Portal:
    """The in-process portal service: it keeps the running submissions
    and the newest ``RETAINED_FINISHED`` finished ones.  A submission
    lists its jobs when it ends, so one that retired before (behind
    ``RETAINED_FINISHED`` jobs finished meanwhile) goes unlisted."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        *,
        registry: Optional[TaskRegistry] = None,
        timeout: float = 120.0,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self._owns_cluster = cluster is None
        self.cluster = cluster if cluster is not None else Cluster(4, registry=registry)
        self.cluster.start()
        self.pipeline = Pipeline()
        self.timeout = timeout
        self.max_body_bytes = max_body_bytes
        self._submissions: dict[int, Submission] = {}
        #: the finished submissions kept, oldest first
        self._finished: dict[int, None] = {}
        self._counter = 0
        self._lock = make_lock("Portal._lock", reentrant=False)

    # -- operations ----------------------------------------------------------
    def submit(
        self, xmi_text: str, runtime_args: Optional[Mapping[str, Any]] = None
    ) -> Submission:
        """Accept an XMI document, run the pipeline, record everything."""
        with self._lock:
            self._counter += 1
            submission = Submission(self._counter, self.cluster, xmi_text=xmi_text)
            self._submissions[submission.submission_id] = submission
        chaos = self.cluster.chaos
        directory = self.cluster.directory
        faults_before = chaos.fault_count() if chaos is not None else 0
        jobs_mark = directory.mark()
        try:
            # step 1 checks the model against this cluster's shape and
            # task registry before anything reaches it
            outcome = self.pipeline.run(
                read_model(xmi_text),
                self.cluster,
                runtime_args=runtime_args,
                timeout=self.timeout,
            )
            submission.report = outcome.report
            submission.cnx_text = outcome.cnx_text
            submission.python_source = outcome.python_source
            submission.java_source = outcome.java_source
            submission.results = outcome.job_results
            submission.status = "done"
        except CnxValidationError as refused:
            submission.status = "rejected"
            # one line: the full findings travel as structured
            # diagnostics (payload + downloadable artifact)
            submission.error = f"static analysis: {refused.report.summary()}"
            submission.report = refused.report
        except Exception as failure:  # noqa: BLE001  # conclint: waive CC302 -- submission failures of any kind become the artifact's error field
            submission.status = "failed"
            submission.error = traceback.format_exc()
            if hasattr(failure, "report"):  # failed after step 1: keep its warnings
                submission.report = failure.report
        # a failed submission's partial jobs are what you want to look at
        submission.job_ids = directory.job_ids_since(jobs_mark)
        if chaos is not None:
            submission.fault_range = (faults_before, chaos.fault_count())
        with self._lock:
            retire(self._finished, submission.submission_id, self._submissions)
        return submission

    def metrics_text(self) -> str:
        """The cluster's metrics in Prometheus text format (empty when
        the cluster has no telemetry) -- the body of ``GET /metrics``."""
        telemetry = self.cluster.telemetry
        return telemetry.prometheus_text() if telemetry is not None else ""

    def get(self, submission_id: int) -> Submission:
        with self._lock:
            try:
                return self._submissions[submission_id]
            except KeyError:
                raise KeyError(f"no submission {submission_id}") from None

    def list(self) -> list[dict[str, Any]]:
        with self._lock:  # a summary reads journals: not under the portal's lock
            submissions = [*self._submissions.values()]
        return [s.summary() for s in submissions]

    def close(self) -> None:
        if self._owns_cluster:
            self.cluster.shutdown()


class _Handler(BaseHTTPRequestHandler):
    portal: Portal  # set by PortalHTTPServer

    def log_message(self, format: str, *args: Any) -> None:  # silence stdout
        pass

    def _send(self, code: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, payload: Any) -> None:
        self._send(code, json.dumps(payload, default=str).encode())

    def do_GET(self) -> None:
        parts = [p for p in self.path.split("/") if p]
        if not parts:
            self._send(
                200,
                b"<html><body><h1>CN Portal</h1>"
                b"<p>POST an XMI document to /submit; list via /submissions; "
                b"fetch artifacts via /submission/&lt;id&gt;/&lt;artifact&gt;.</p>"
                b"</body></html>",
                "text/html",
            )
            return
        if parts == ["submissions"]:
            self._json(200, self.portal.list())
            return
        if parts == ["metrics"]:
            self._send(
                200,
                self.portal.metrics_text().encode(),
                "text/plain; version=0.0.4",
            )
            return
        if len(parts) >= 2 and parts[0] == "submission":
            try:
                submission = self.portal.get(int(parts[1]))
            except (KeyError, ValueError):
                self._json(404, {"error": "no such submission"})
                return
            if len(parts) == 2:
                self._json(
                    200, {**submission.summary(), "results": submission.results}
                )
                return
            artifact = submission.artifact(parts[2])
            if artifact is None:
                self._json(404, {"error": f"no artifact {parts[2]!r}"})
                return
            self._send(200, artifact.encode(), "text/plain")
            return
        self._json(404, {"error": "unknown path"})

    def do_POST(self) -> None:
        if self.path.rstrip("/") != "/submit":
            self._json(404, {"error": "POST /submit only"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            runtime_args = json.loads(self.headers.get("X-Runtime-Args") or "{}")
        except (ValueError, RecursionError):  # RecursionError: deeply nested JSON
            length, runtime_args = -1, None
        if length < 0 or not isinstance(runtime_args, dict):
            # refuse before reading: a body of unknown length is never read
            self._json(400, {"error": "malformed Content-Length or X-Runtime-Args"})
            return
        if length > self.portal.max_body_bytes:
            # refuse before reading: an oversized body never enters memory
            self._json(
                413,
                {
                    "error": "request body too large",
                    "limit_bytes": self.portal.max_body_bytes,
                },
            )
            return
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if content_type and content_type.lower() not in _ACCEPTED_CONTENT_TYPES:
            self._json(
                415,
                {
                    "error": f"unsupported content type {content_type!r}",
                    "accepted": list(_ACCEPTED_CONTENT_TYPES),
                },
            )
            return
        try:
            body = self.rfile.read(length).decode()
        except UnicodeDecodeError:
            self._json(400, {"error": "request body is not UTF-8"})
            return
        submission = self.portal.submit(body, runtime_args)
        self._json(
            {"done": 200, "rejected": 422}.get(submission.status, 500),
            {
                **submission.summary(),
                "results": submission.results,
                "findings": submission.diagnostics,
            },
        )


class PortalHTTPServer:
    """Serve a :class:`Portal` over HTTP on a background thread."""

    def __init__(self, portal: Portal, host: str = "127.0.0.1", port: int = 0) -> None:
        handler = type("BoundHandler", (_Handler,), {"portal": portal})
        self.portal = portal
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, name="cn-portal", daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    def start(self) -> "PortalHTTPServer":
        self.thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


def main(argv: Optional[list[str]] = None) -> int:
    """Console entry point: run a portal over a fresh 4-node cluster."""
    import argparse

    parser = argparse.ArgumentParser(description="CN web portal prototype")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--nodes", type=int, default=4)
    options = parser.parse_args(argv)
    from repro.apps.floyd import floyd_registry
    from repro.apps.montecarlo import register_pi_tasks
    from repro.apps.wordcount import register_wordcount_tasks

    registry = register_wordcount_tasks(register_pi_tasks(floyd_registry()))
    portal = Portal(Cluster(options.nodes, registry=registry))
    server = PortalHTTPServer(portal, options.host, options.port).start()
    host, port = server.address
    print(f"CN portal listening on http://{host}:{port}/")
    try:
        server.thread.join()
    except KeyboardInterrupt:
        server.stop()
        portal.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
