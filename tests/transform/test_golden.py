"""Golden-file snapshot tests: generated artifacts are byte-stable.

The XMI export and the XSLT-produced CNX descriptor for the guiding
example are checked against committed snapshots, and the benchmark's
152-task CNX and generated client against the hashes it checks every op
against.  Any intentional change to id allocation, attribute ordering,
indentation, the stylesheet or the generator shows up as a reviewable
diff here rather than as silent drift.
"""

import json
from pathlib import Path

from repro.apps.floyd.model import build_fig3_model
from repro.core.transform.xmi2cnx import xmi_to_cnx_text
from repro.core.xmi import write_graph

DATA = Path(__file__).parent.parent / "data"
BENCHMARK_GOLDEN = DATA.parent.parent / "benchmarks" / "e2e" / "golden"


def test_fig3_xmi_snapshot():
    generated = write_graph(build_fig3_model(n_workers=5))
    assert generated == (DATA / "fig3_model.xmi").read_text()


def test_fig2_cnx_snapshot():
    xmi = write_graph(build_fig3_model(n_workers=5))
    generated = xmi_to_cnx_text(xmi, log="CN_Client1047909210005.log")
    assert generated == (DATA / "fig2_descriptor.cnx").read_text()


def test_compose_wide150_artifacts_match_the_benchmark_golden():
    from benchmarks.e2e.workloads import compose_artifacts

    golden = json.loads((BENCHMARK_GOLDEN / "compose-wide150.json").read_text())
    assert compose_artifacts(golden["seed"]) == golden


def test_snapshots_parse():
    from repro.core.cnx import parse, validate
    from repro.core.xmi import read_graphs

    graphs = read_graphs((DATA / "fig3_model.xmi").read_text())
    assert graphs[0].name == "TransClosure"
    doc = parse((DATA / "fig2_descriptor.cnx").read_text())
    validate(doc)
    assert doc.client.jobs[0].task_names()[0] == "tctask0"
