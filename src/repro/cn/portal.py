"""Web-portal prototype (paper Fig. 1, last component).

"Prototype: Web interface to the CN cluster that accepts UML model in
XMI format, translates the model to an executable, executes [the] model
and displays or makes the results available for download."

Two layers:

* :class:`Portal` -- the in-process service: accepts XMI submissions,
  runs the Fig. 6 pipeline against its cluster, and keeps every
  submission's artifacts (CNX, generated client, results) available for
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
import time
import traceback
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional

from repro.core.cnx import DEFAULT_PORT
from repro.core.transform.pipeline import Pipeline
from repro.core.xmi.reader import read_model

from ..analysis.conc.runtime import make_lock
from .admission import AdmissionController
from .cluster import Cluster
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
    """One accepted XMI submission and everything produced from it."""

    submission_id: int
    #: pending | rejected | done | failed | throttled | saturated
    status: str = "pending"
    #: tenant the submission was accounted to (admission control)
    tenant: str = "anon"
    #: seconds the client should wait before retrying (throttled /
    #: saturated rejections; becomes the HTTP Retry-After header)
    retry_after: float = 0.0
    xmi_text: str = ""
    cnx_text: str = ""
    python_source: str = ""
    java_source: str = ""
    results: list[dict[str, Any]] = field(default_factory=list)
    error: str = ""
    #: static-analysis findings (dicts, see Diagnostic.to_dict); a
    #: submission with error-severity findings is rejected at the
    #: pipeline's step 1, warnings ride along on any submission past it
    diagnostics: list[dict[str, Any]] = field(default_factory=list)
    #: chaos faults injected while this submission ran (dicts, see
    #: FaultRecord.to_dict); empty when the cluster has no chaos policy
    fault_events: list[dict[str, Any]] = field(default_factory=list)
    #: manager-failover adoptions recorded in the replicated job journal
    #: while this submission ran (job_id, successor, previous, epoch)
    failover_events: list[dict[str, Any]] = field(default_factory=list)
    #: poison-message quarantines journaled while this submission ran
    #: (job_id, task, serial, digests) -- corrupt frames the transport
    #: checksums caught and dead-lettered instead of delivering
    dead_letter_events: list[dict[str, Any]] = field(default_factory=list)
    #: Chrome trace_event JSON for the jobs this submission ran (load in
    #: chrome://tracing or Perfetto); empty when telemetry is disabled
    timeline: str = ""
    #: the same capture in the JSONL interchange format the
    #: ``python -m repro.telemetry`` CLI consumes
    telemetry_jsonl: str = ""

    def artifacts(self) -> dict[str, str]:
        return {
            "xmi": self.xmi_text,
            "cnx": self.cnx_text,
            "client.py": self.python_source,
            "client.java": self.java_source,
            "diagnostics": json.dumps(self.diagnostics, indent=2),
            "faults": json.dumps(self.fault_events, indent=2),
            "failovers": json.dumps(self.failover_events, indent=2),
            "dead-letters": json.dumps(self.dead_letter_events, indent=2),
            "timeline": self.timeline,
            "telemetry.jsonl": self.telemetry_jsonl,
        }

    def summary(self) -> dict[str, Any]:
        return {
            "id": self.submission_id,
            "status": self.status,
            "tenant": self.tenant,
            "jobs": len(self.results),
            "error": self.error.splitlines()[-1] if self.error else "",
            "diagnostics": len(self.diagnostics),
            "faults": len(self.fault_events),
            "failovers": len(self.failover_events),
            "dead_letters": len(self.dead_letter_events),
        }


class Portal:
    """The in-process portal service."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        *,
        registry: Optional[TaskRegistry] = None,
        timeout: float = 120.0,
        admission: Optional[AdmissionController] = None,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self._owns_cluster = cluster is None
        self.cluster = cluster if cluster is not None else Cluster(4, registry=registry)
        self.cluster.start()
        self.pipeline = Pipeline()
        self.timeout = timeout
        #: overload protection in front of submit(); None = admit all
        #: (the seed behavior, and what most unit tests want)
        self.admission = admission
        self.max_body_bytes = max_body_bytes
        self._submissions: dict[int, Submission] = {}
        self._counter = 0
        self._lock = make_lock("Portal._lock", reentrant=False)

    # -- operations ----------------------------------------------------------
    def submit(
        self,
        xmi_text: str,
        runtime_args: Optional[Mapping[str, Any]] = None,
        *,
        tenant: str = "anon",
    ) -> Submission:
        """Accept an XMI document, run the pipeline, record everything.

        When an :class:`AdmissionController` is attached, the admission
        decision happens *first* -- before the XMI is parsed or the
        pipeline touched -- so a rejection under overload costs O(1)
        regardless of how congested the cluster is.  Quota rejections
        come back as status ``throttled``, saturation rejections as
        ``saturated``; both carry a ``retry_after`` hint."""
        with self._lock:
            self._counter += 1
            submission = Submission(self._counter, tenant=tenant, xmi_text=xmi_text)
            self._submissions[submission.submission_id] = submission
        admission = self.admission
        admitted = admission is None
        if admission is not None:
            started = time.perf_counter()
            decision = admission.admit(tenant)
            self._note_admission(decision, time.perf_counter() - started)
            if not decision.admitted:
                submission.status = (
                    "saturated"
                    if decision.decision == "reject-saturated"
                    else "throttled"
                )
                submission.retry_after = decision.retry_after
                submission.error = (
                    f"admission: {decision.decision} "
                    f"(saturation={decision.saturation:.2f})"
                )
                return submission
            admitted = True
        try:
            return self._run_submission(submission, runtime_args)
        finally:
            if admission is not None and admitted:
                admission.release(tenant)

    def _note_admission(self, decision, latency: float) -> None:
        telemetry = self.cluster.telemetry
        if telemetry is None:
            return
        telemetry.metrics.counter(
            "cn_admission_total", decision=decision.decision
        ).inc()
        telemetry.metrics.histogram("cn_admission_latency_seconds").observe(latency)

    def _run_submission(
        self,
        submission: Submission,
        runtime_args: Optional[Mapping[str, Any]],
    ) -> Submission:
        chaos = self.cluster.chaos
        faults_before = len(chaos.log_dicts()) if chaos is not None else 0
        jobs_mark = self.cluster.directory.mark()
        try:
            # step 1 checks the model against this cluster's shape and
            # task registry before anything reaches it
            outcome = self.pipeline.run(
                read_model(submission.xmi_text),
                self.cluster,
                runtime_args=runtime_args,
                timeout=self.timeout,
            )
            submission.diagnostics = outcome.report.to_json()
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
            submission.diagnostics = refused.report.to_json()
        except Exception as failure:  # noqa: BLE001  # conclint: waive CC302 -- submission failures of any kind become the artifact's error field
            submission.status = "failed"
            submission.error = traceback.format_exc()
            if hasattr(failure, "report"):  # failed after step 1: keep its warnings
                submission.diagnostics = failure.report.to_json()
        finally:
            if chaos is not None:
                submission.fault_events = chaos.log_dicts()[faults_before:]
            self._capture_jobs(submission, jobs_mark)
        return submission

    def _capture_jobs(self, submission: Submission, jobs_mark: int) -> None:
        """Record what the jobs created while this submission ran left
        behind (partial runs included -- a failed submission's timeline
        is exactly what you want to look at): adoptions and dead letters
        from each job's own journal records, read from its current
        manager's replica, and the job's spans (trace id == job id)."""
        directory = self.cluster.directory
        job_ids = directory.job_ids_since(jobs_mark)
        for job_id in job_ids:
            journal = directory.lookup(job_id).manager.journal
            if journal is None:
                continue
            dead_letters: dict[tuple[str, int], dict[str, Any]] = {}
            for record in journal.records(job_id):
                data = record.data
                if record.kind == "job-adopted":
                    submission.failover_events.append(
                        {
                            "job_id": job_id,
                            "manager": data.get("manager"),
                            "previous": data.get("previous"),
                            "manager_epoch": record.mepoch,
                        }
                    )
                elif record.kind == "dead-letter":
                    key = (str(data.get("task", "")), int(data.get("serial", 0)))
                    dead_letters.setdefault(key, {"job_id": job_id, **data})
            submission.dead_letter_events.extend(
                dead_letters[key] for key in sorted(dead_letters)
            )
        telemetry = self.cluster.telemetry
        if telemetry is None:
            return
        spans = [span for job_id in job_ids for span in telemetry.spans.spans(job_id)]
        if not spans:
            return
        submission.timeline = json.dumps(chrome_trace(spans), indent=1)
        buffer = io.StringIO()
        write_jsonl(buffer, spans=spans)
        submission.telemetry_jsonl = buffer.getvalue()

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
        with self._lock:
            return [s.summary() for s in self._submissions.values()]

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
            artifact = submission.artifacts().get(parts[2])
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
        tenant = self.headers.get("X-Tenant") or "anon"
        submission = self.portal.submit(body, runtime_args, tenant=tenant)
        codes = {"done": 200, "rejected": 422, "throttled": 429, "saturated": 503}
        code = codes.get(submission.status, 500)
        payload = {
            **submission.summary(),
            "results": submission.results,
            "findings": submission.diagnostics,
        }
        body_bytes = json.dumps(payload, default=str).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body_bytes)))
        if submission.retry_after > 0:
            # standard backoff hint for 429/503 (whole seconds, min 1)
            self.send_header("Retry-After", str(max(1, int(submission.retry_after + 0.999))))
        self.end_headers()
        self.wfile.write(body_bytes)


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
