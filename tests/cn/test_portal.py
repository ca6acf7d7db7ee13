"""Web-portal prototype tests: in-process service and HTTP wrapper."""

import json
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.analysis import Report
from repro.apps.montecarlo import build_pi_model, register_pi_tasks
from repro.cn import Cluster
from repro.cn.durability import RETAINED_FINISHED
from repro.cn.portal import Portal, PortalHTTPServer
from repro.cn.registry import TaskRegistry
from repro.core.transform.pipeline import Pipeline
from repro.core.xmi import write_graph
from repro.core.xmi.reader import read_model


@pytest.fixture(scope="module")
def portal():
    registry = register_pi_tasks(TaskRegistry())
    portal = Portal(
        Cluster(3, registry=registry, memory_per_node=64000)
    )
    yield portal
    portal.close()
    portal.cluster.shutdown()


@pytest.fixture(scope="module")
def http_portal(portal):
    server = PortalHTTPServer(portal).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def guarded_portal():
    """A portal whose body cap is small enough to trip in tests: 16 KiB."""
    registry = register_pi_tasks(TaskRegistry())
    cluster = Cluster(2, registry=registry, memory_per_node=64000)
    portal = Portal(cluster, max_body_bytes=16384)
    yield portal
    portal.close()
    cluster.shutdown()


@pytest.fixture(scope="module")
def guarded_http(guarded_portal):
    server = PortalHTTPServer(guarded_portal).start()
    yield server
    server.stop()


def pi_xmi(samples=20000, workers=3):
    return write_graph(build_pi_model(samples=samples, seed=1, n_workers=workers))


class TestPortalService:
    def test_submit_runs_pipeline(self, portal):
        submission = portal.submit(pi_xmi())
        assert submission.status == "done"
        assert submission.results[0]["pijoin"]["samples"] == 20000
        assert "<cn2>" in submission.cnx_text
        assert "def run(cluster" in submission.python_source
        assert "public class" in submission.java_source

    def test_failed_submission_recorded(self, portal):
        submission = portal.submit("<not-xmi/>")
        assert submission.status == "failed"
        assert submission.error

    def test_listing_and_lookup(self, portal):
        before = len(portal.list())
        submission = portal.submit(pi_xmi())
        assert len(portal.list()) == before + 1
        assert portal.get(submission.submission_id) is submission
        with pytest.raises(KeyError):
            portal.get(99999)

    def test_artifacts_downloadable(self, portal):
        submission = portal.submit(pi_xmi())
        artifacts = submission.artifacts()
        assert set(artifacts) == {
            "xmi",
            "cnx",
            "client.py",
            "client.java",
            "diagnostics",
            "faults",
            "failovers",
            "timeline",
            "telemetry.jsonl",
        }
        assert artifacts["xmi"].startswith("<XMI")
        # the submission ran a traced job, so the timeline is populated
        assert json.loads(artifacts["timeline"])["traceEvents"]
        assert json.loads(artifacts["diagnostics"]) == []
        assert json.loads(artifacts["faults"]) == []
        assert json.loads(artifacts["failovers"]) == []


class TestSubmissionEvents:
    """What a submission records about its own jobs comes from those
    jobs' journal records -- never from a scan of the cluster's history."""

    def test_submit_reads_no_whole_journal(self, portal, monkeypatch):
        from repro.cn.durability import MemoryJournal

        portal.submit(pi_xmi(samples=2000, workers=2))  # some history first
        asked = []
        records = MemoryJournal.records

        def spy(self, job_id=None):
            asked.append(job_id)
            return records(self, job_id)

        monkeypatch.setattr(MemoryJournal, "records", spy)
        submission = portal.submit(pi_xmi(samples=2000, workers=2))
        assert submission.status == "done"
        assert asked == []  # the events are views: submit builds none of them
        assert submission.failover_events == []
        assert asked and None not in asked
        assert len(set(asked)) == 1  # the one job this submission created

    def test_submit_reads_none_of_the_earlier_submissions_job_ids(self):
        class Recorder:
            """The cluster's directory, recording every job id a read of
            it hands back."""

            def __init__(self, inner):
                self.inner = inner
                self.seen = set()

            def __getattr__(self, name):
                attr = getattr(self.inner, name)
                if not callable(attr):
                    return attr

                def call(*args, **kwargs):
                    out = attr(*args, **kwargs)
                    if isinstance(out, list):
                        self.seen.update(out)
                    return out

                return call

        registry = register_pi_tasks(TaskRegistry())
        with Cluster(2, registry=registry, memory_per_node=64000) as cluster:
            portal = Portal(cluster)
            for _ in range(4):
                assert portal.submit(pi_xmi(samples=2000, workers=2)).status == "done"
            earlier = set(cluster.directory.job_ids())
            recorder = cluster.directory = Recorder(cluster.directory)
            submission = portal.submit(pi_xmi(samples=2000, workers=2))
            portal.close()
        assert submission.status == "done"
        assert len(earlier) == 4
        assert recorder.seen and not recorder.seen & earlier

    def test_concurrent_submissions_each_show_only_their_own_job(self, monkeypatch):
        import threading

        registry = register_pi_tasks(TaskRegistry())
        cluster = Cluster(2, registry=registry, memory_per_node=64000)
        portal = Portal(cluster)
        # both runs return only once both have created their job, so
        # each submission's run overlaps the other's
        both_ran = threading.Barrier(2, timeout=30)
        run = portal.pipeline.run

        def overlapping_run(*args, **kwargs):
            outcome = run(*args, **kwargs)
            both_ran.wait()
            return outcome

        monkeypatch.setattr(portal.pipeline, "run", overlapping_run)
        done = []
        clients = [
            threading.Thread(
                target=lambda: done.append(portal.submit(pi_xmi(samples=2000, workers=2)))
            )
            for _ in range(2)
        ]
        try:
            for client in clients:
                client.start()
            for client in clients:
                client.join(60)
            assert not any(client.is_alive() for client in clients)
        finally:
            cluster.shutdown()
        assert [s.status for s in done] == ["done", "done"]
        jobs = [
            {json.loads(line)["trace_id"] for line in s.telemetry_jsonl.splitlines()}
            for s in done
        ]
        assert jobs[0].isdisjoint(jobs[1])
        assert [len(ids) for ids in jobs] == [1, 1]
        assert sorted(jobs[0] | jobs[1]) == sorted(s.job_ids[0] for s in done)

    def test_the_exports_are_built_when_read_and_not_before(self, portal, monkeypatch):
        import repro.cn.portal as module

        calls = {"chrome_trace": 0, "write_jsonl": 0}

        def counted(name):
            real = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return count

        for name in calls:
            monkeypatch.setattr(module, name, counted(name))
        submission = portal.submit(pi_xmi(samples=2000, workers=2))
        assert submission.status == "done"
        assert calls == {"chrome_trace": 0, "write_jsonl": 0}
        timeline = submission.timeline
        assert calls == {"chrome_trace": 1, "write_jsonl": 0}
        jsonl = submission.telemetry_jsonl
        assert calls == {"chrome_trace": 1, "write_jsonl": 1}
        assert json.loads(timeline)["traceEvents"] and jsonl
        assert submission.timeline == timeline
        assert submission.telemetry_jsonl == jsonl

    @pytest.mark.chaos
    def test_failover_during_a_submission_is_recorded(self):
        import threading

        from repro.apps.floyd import (
            build_fig3_model,
            random_weighted_graph,
            store_matrix,
        )

        from ..apps.test_floyd_failover import Gate, gated_registry

        gate = Gate(1, expected=2)
        cluster = Cluster(4, registry=gated_registry(gate))
        cluster.servers[0].accept_tasks = False  # node0: manager only
        portal = Portal(cluster)
        source = store_matrix("portal-failover", random_weighted_graph(8, seed=11))
        xmi = write_graph(
            build_fig3_model(n_workers=2, matrix_source=source, sink="", retries=2)
        )
        done: dict = {}
        client = threading.Thread(
            target=lambda: done.update(submission=portal.submit(xmi)), daemon=True
        )
        try:
            client.start()
            assert gate.all_reached.wait(30)
            cluster.kill_node("node0")  # the managing node
            cluster.tick(4)  # detect death; node1 adopts and re-places
            gate.release.set()
            client.join(60)
            assert not client.is_alive()
        finally:
            gate.release.set()
            cluster.shutdown()
        submission = done["submission"]
        assert submission.status == "done", submission.error
        assert submission.failover_events == [
            {
                "job_id": "node0/jm-job1",
                "manager": "node1/jm",
                "previous": "node0/jm",
                "manager_epoch": 2,
            }
        ]
        assert submission.summary()["failovers"] == 1
        assert json.loads(submission.artifacts()["timeline"])["traceEvents"]


class TestRetention:
    def test_the_newest_submissions_stay_and_a_retired_jobs_views_read_gone(self):
        registry = register_pi_tasks(TaskRegistry())
        with Cluster(2, registry=registry, memory_per_node=64000) as cluster:
            portal = Portal(cluster)
            server = PortalHTTPServer(portal).start()
            host, port = server.address
            try:
                for _ in range(RETAINED_FINISHED + 5):
                    assert portal.submit(pi_xmi(samples=2000, workers=2)).status == "done"
                ids = [summary["id"] for summary in portal.list()]
                assert ids == list(range(6, RETAINED_FINISHED + 6))
                with pytest.raises(KeyError):
                    portal.get(5)
                oldest = portal.get(6)
                # one job run past the portal retires the oldest live one's
                Pipeline().run(read_model(pi_xmi(samples=2000, workers=2)), cluster)
                assert cluster.directory.lookup(oldest.job_ids[0]) is None
                assert [summary["id"] for summary in portal.list()] == ids
                artifacts = oldest.artifacts()
                assert artifacts["cnx"] == oldest.cnx_text and artifacts["xmi"]
                assert json.loads(artifacts["failovers"]) == []
                assert artifacts["timeline"] == artifacts["telemetry.jsonl"] == ""
                url = f"http://{host}:{port}"
                listing = json.load(urllib.request.urlopen(f"{url}/submissions"))
                assert [summary["id"] for summary in listing] == ids
                timeline = urllib.request.urlopen(f"{url}/submission/6/timeline")
                assert timeline.status == 200 and timeline.read() == b""
                with pytest.raises(urllib.error.HTTPError) as gone:
                    urllib.request.urlopen(f"{url}/submission/5")
                assert gone.value.code == 404
            finally:
                server.stop()
                portal.close()


class HeldPipeline:
    """Runs no job; the first run waits until *release* is set."""

    def __init__(self):
        self.entered, self.release = threading.Event(), threading.Event()
        self.runs = 0

    def run(self, model, cluster, **kwargs):
        self.runs += 1
        if self.runs == 1:
            self.entered.set()
            assert self.release.wait(30)
        return SimpleNamespace(
            report=Report(), cnx_text="", python_source="", java_source="", job_results=[]
        )


def test_a_running_submission_outlives_newer_finished_ones():
    with Cluster(1) as cluster:
        portal = Portal(cluster)
        portal.pipeline = held = HeldPipeline()
        first = threading.Thread(target=portal.submit, args=(pi_xmi(),))
        first.start()
        try:
            assert held.entered.wait(30)
            for _ in range(RETAINED_FINISHED + 1):
                assert portal.submit(pi_xmi()).status == "done"
            assert portal.get(1).status == "pending"
            newest = list(range(3, RETAINED_FINISHED + 3))
            assert [summary["id"] for summary in portal.list()] == [1, *newest]
        finally:
            held.release.set()
            first.join(timeout=30)
        assert portal.get(1).status == "done"
        # its end retired the oldest finished one
        assert [summary["id"] for summary in portal.list()] == [1, *newest[1:]]


class TestPortalHTTP:
    def url(self, server, path):
        host, port = server.address
        return f"http://{host}:{port}{path}"

    def test_index_page(self, http_portal):
        body = urllib.request.urlopen(self.url(http_portal, "/")).read().decode()
        assert "CN Portal" in body

    def test_submit_and_fetch(self, http_portal):
        request = urllib.request.Request(
            self.url(http_portal, "/submit"), data=pi_xmi().encode(), method="POST"
        )
        response = json.load(urllib.request.urlopen(request))
        assert response["status"] == "done"
        sid = response["id"]
        detail = json.load(
            urllib.request.urlopen(self.url(http_portal, f"/submission/{sid}"))
        )
        assert detail["results"][0]["pijoin"]["samples"] == 20000
        cnx = (
            urllib.request.urlopen(self.url(http_portal, f"/submission/{sid}/cnx"))
            .read()
            .decode()
        )
        assert "<cn2>" in cnx

    def test_submissions_listing(self, http_portal):
        listing = json.load(
            urllib.request.urlopen(self.url(http_portal, "/submissions"))
        )
        assert isinstance(listing, list) and listing

    def test_404s(self, http_portal):
        for path in ("/nope", "/submission/424242", "/submission/1/ghost-artifact"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(self.url(http_portal, path))
            assert excinfo.value.code == 404

    def test_bad_submission_returns_500(self, http_portal):
        request = urllib.request.Request(
            self.url(http_portal, "/submit"), data=b"<garbage/>", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 500

    @pytest.mark.parametrize(
        "headers",
        [
            {"Content-Length": "-1"},
            {"Content-Length": "lots"},
            {"Content-Length": "0", "X-Runtime-Args": "not json"},
            {"Content-Length": "0", "X-Runtime-Args": "[1, 2]"},
            # under http.server's 64 KiB header line, too deep for json
            {"Content-Length": "0", "X-Runtime-Args": "[" * 60000},
        ],
        ids=[
            "negative-length", "non-integer-length", "args-not-json", "args-not-an-object",
            "args-nested-too-deep",
        ],
    )
    def test_malformed_headers_are_400_before_the_body_is_read(
        self, http_portal, headers, capfd
    ):
        import http.client

        before = len(http_portal.portal.list())
        connection = http.client.HTTPConnection(*http_portal.address, timeout=10)
        try:
            # headers only: the answer must not wait for a body
            connection.putrequest("POST", "/submit", skip_accept_encoding=True)
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "malformed" in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert len(http_portal.portal.list()) == before  # nothing was submitted
        assert "Traceback" not in capfd.readouterr().err

    def test_a_body_that_is_not_utf8_is_400(self, http_portal, capfd):
        before = len(http_portal.portal.list())
        request = urllib.request.Request(
            self.url(http_portal, "/submit"), data=b"\xff\xfe<XMI/>", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "UTF-8" in json.loads(excinfo.value.read())["error"]
        assert len(http_portal.portal.list()) == before  # nothing was submitted
        assert "Traceback" not in capfd.readouterr().err

    def test_oversized_body_rejected_413(self, guarded_http):
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=b"x" * 20000,  # guarded portal caps bodies at 16 KiB
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 413

    def test_unknown_content_type_rejected_415(self, guarded_http):
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=b"{}",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 415

    def test_xml_content_type_accepted(self, guarded_http):
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=pi_xmi(samples=2000, workers=2).encode(),
            method="POST",
            headers={"Content-Type": "text/xml"},
        )
        response = json.load(urllib.request.urlopen(request))
        assert response["status"] == "done"
        assert response["results"][0]["pijoin"]["samples"] == 2000

    def test_runtime_args_header(self, http_portal):
        from repro.apps.floyd.driver import register_floyd_tasks
        from repro.apps.floyd.model import build_fig5_model
        from repro.apps.floyd.io import store_matrix
        from repro.apps.floyd.serial import random_weighted_graph

        register_floyd_tasks(http_portal.portal.cluster.registry)
        matrix = random_weighted_graph(6, seed=2)
        source = store_matrix("portal-dyn", matrix)
        xmi = write_graph(build_fig5_model(matrix_source=source, sink=""))
        request = urllib.request.Request(
            self.url(http_portal, "/submit"),
            data=xmi.encode(),
            method="POST",
            headers={"X-Runtime-Args": json.dumps({"n_workers": 2})},
        )
        response = json.load(urllib.request.urlopen(request))
        assert response["status"] == "done"
