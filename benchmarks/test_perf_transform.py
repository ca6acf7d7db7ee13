"""PERF2 -- transform throughput: the XSLT engine vs the native oracle.

The paper's tools are stylesheets; a practical reproduction must show
the XSLT path handles real model sizes.  This bench sweeps job sizes,
times XMI2CNX on both implementations, and asserts the two stay
semantically identical at every size (the differential guarantee the
test suite samples, measured here at scale).
"""

from __future__ import annotations

import time

import pytest

from repro.apps.floyd.model import build_fig3_model
from repro.core.transform.xmi2cnx import xmi_to_cnx, xmi_to_cnx_native
from repro.core.xmi import write_graph


def model_xmi(n_tasks: int) -> str:
    return write_graph(build_fig3_model(n_workers=n_tasks))


@pytest.fixture(scope="module")
def xmi_small():
    return model_xmi(5)


@pytest.fixture(scope="module")
def xmi_medium():
    return model_xmi(25)


@pytest.fixture(scope="module")
def xmi_large():
    return model_xmi(100)


class TestBenchXslt:
    def test_bench_xslt_5_tasks(self, benchmark, xmi_small):
        doc = benchmark(xmi_to_cnx, xmi_small)
        assert len(doc.client.jobs[0].tasks) == 7

    def test_bench_xslt_25_tasks(self, benchmark, xmi_medium):
        doc = benchmark.pedantic(xmi_to_cnx, args=(xmi_medium,), rounds=3, iterations=1)
        assert len(doc.client.jobs[0].tasks) == 27


class TestBenchNative:
    def test_bench_native_5_tasks(self, benchmark, xmi_small):
        doc = benchmark(xmi_to_cnx_native, xmi_small)
        assert len(doc.client.jobs[0].tasks) == 7

    def test_bench_native_25_tasks(self, benchmark, xmi_medium):
        doc = benchmark(xmi_to_cnx_native, xmi_medium)
        assert len(doc.client.jobs[0].tasks) == 27

    def test_bench_native_100_tasks(self, benchmark, xmi_large):
        doc = benchmark.pedantic(
            xmi_to_cnx_native, args=(xmi_large,), rounds=3, iterations=1
        )
        assert len(doc.client.jobs[0].tasks) == 102


def normalize(doc):
    return sorted(
        (
            t.name,
            t.jar,
            t.cls,
            tuple(t.depends),
            t.task_req.memory,
            t.task_req.runmodel,
            tuple((p.type, p.value) for p in t.params),
        )
        for t in doc.client.jobs[0].tasks
    )


def test_throughput_and_agreement_report(report, xmi_small, xmi_medium, xmi_large):
    rows = []
    for label, xmi in (("5", xmi_small), ("25", xmi_medium), ("100", xmi_large)):
        start = time.perf_counter()
        via_xslt = xmi_to_cnx(xmi)
        xslt_seconds = time.perf_counter() - start
        start = time.perf_counter()
        via_native = xmi_to_cnx_native(xmi)
        native_seconds = time.perf_counter() - start
        assert normalize(via_xslt) == normalize(via_native), f"divergence at {label}"
        rows.append(
            [
                label,
                f"{len(xmi) / 1024:.1f} KiB",
                f"{xslt_seconds * 1000:.1f} ms",
                f"{native_seconds * 1000:.1f} ms",
                f"{xslt_seconds / max(native_seconds, 1e-9):.1f}x",
            ]
        )
    report.line("PERF2 -- XMI2CNX throughput: in-repo XSLT engine vs native oracle")
    report.line("(both paths produce semantically identical descriptors)")
    report.line()
    report.table(["workers", "XMI size", "XSLT", "native", "XSLT/native"], rows)
