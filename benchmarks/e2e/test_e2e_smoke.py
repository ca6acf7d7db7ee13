"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``; not
part of tier-1).

One ``run --quick`` (2 ops per pass) is shared by the tests that read
its output; the rest drive the command line the way a user or the
benchmark driver would.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
INPROC = [w for w in WORKLOADS if w != "floyd128-proc"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = bench("run", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text(encoding="utf-8"))["sets"][0]


def test_every_named_metric_is_printed_with_its_unit(quick):
    stdout, _ = quick
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        line = re.compile(
            rf"^\s+{re.escape(metric['name'])}\s+-?[\d.]+ {re.escape(metric['unit'])}$",
            re.MULTILINE,
        )
        assert len(line.findall(stdout)) == len(WORKLOADS), metric["name"]


def test_no_op_failed_and_every_workload_ran(quick):
    _, result = quick
    assert sorted(result) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert result[name]["failed"] == 0
        assert result[name]["attempted"] >= 2
        assert all(v > 0 for v in result[name]["end_to_end"].values()), name


def test_exact_counts_are_exact(quick):
    _, result = quick
    layers = {name: result[name]["per_layer"] for name in WORKLOADS}
    assert layers["place256-solicit"]["cn.multicast.solicitations"] == 257
    assert layers["place256-solicit"]["cn.scheduler.rules"] == 0
    assert 1 <= layers["place256-bid"]["cn.multicast.solicitations"] <= 3
    assert layers["place256-bid"]["cn.scheduler.rules"] == 1
    assert layers["compose-wide150"]["cn.taskmanager.attempts"] == 152
    assert layers["compose-wide150"]["cn.multicast.solicitations"] == 153
    for name in INPROC:
        wire = {k: v for k, v in layers[name].items() if k.startswith("cn.transport.")}
        wire.pop("cn.transport.coordinator_threads")
        assert set(wire.values()) == {0}, (name, wire)
    assert layers["floyd128-proc"]["cn.transport.frames_sent_per_op"] > 0
    assert layers["floyd128-proc"]["cn.transport.worker_cpu_ms_per_op"] > 0
    for name in WORKLOADS:
        assert layers[name]["cn.jobmanager.jobs_created"] == 1
        assert layers[name]["cn.taskmanager.retries"] == 0


def test_layer_table_has_the_shape_the_workloads_were_chosen_for(quick):
    _, result = quick
    compose = result["compose-wide150"]["per_layer"]
    stages = {k: v for k, v in compose.items() if k.endswith("_ms") and "." in k}
    for derived in ("cn.durability.cost_ms", "cn.telemetry.cost_ms",
                    "cn.telemetry.critical_path_ms", "harness.calib_ms",
                    "harness.op_latency_p90_ms", "harness.op_latency_max_ms"):
        stages.pop(derived)
    assert max(stages, key=stages.get) == "xslt.transform_ms"
    for name in ("core.uml.validate_ms", "core.xmi.write_ms", "util.xmlutil.parse_ms",
                 "core.cnx.parse_ms", "core.cnx.validate_ms", "core.cnx.emit_ms",
                 "core.transform.codegen_py_ms", "core.transform.codegen_java_ms",
                 "core.transform.deploy_ms", "cn.api.create_job_ms", "cn.api.start_ms",
                 "cn.api.wait_ms", "cn.scheduler.place_ms", "core.xmi.bytes"):
        assert compose[name] > 0, name
    assert result["portal-mix"]["per_layer"]["core.xmi.read_ms"] > 0
    floyd = result["floyd128-inproc"]["per_layer"]
    assert floyd["apps.floyd.kernel_serial_ms"] > 0
    assert floyd["cn.durability.retained_mb_per_op"] > 5
    for name in WORKLOADS:
        assert result[name]["per_layer"]["harness.unattributed_pct"] < 10, name


def test_trace_spans_nest(quick):
    for name in WORKLOADS:
        path = HERE / "out" / f"trace-{name}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        assert [r["name"] for r in roots] == ["op"] * len(roots)
        assert sorted(r["op"] for r in roots) == list(range(len(roots))), name
        for span in spans:
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
                assert parent["op"] == span["op"]


def test_golden_artifacts_are_byte_deterministic_and_current():
    done = bench("golden")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "generated twice" in done.stdout


def test_corrupted_reference_makes_the_command_fail(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "golden", golden)
    record = json.loads((golden / "compose-wide150.json").read_text())
    record["cnx_sha256"] = "0" * 64
    (golden / "compose-wide150.json").write_text(json.dumps(record))
    done = bench("--workload", "compose-wide150", "--quick", "--golden-dir", str(golden))
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "cnx_sha256 differs from golden" in done.stdout


def test_compare_applies_the_bound_and_the_spread(tmp_path):
    def result(p50s, workload="compose-wide150"):
        return {"sets": [
            {workload: {"end_to_end": {"op_latency_p50_ms": v}, "failed": 0}}
            for v in p50s
        ]}

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_latency_p50_ms")
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    cases = {
        "same": (steady, [v * (1 + bound / 4) for v in steady]),
        "worse": (steady, [v * (1 + 2 * bound) for v in steady]),
        "better": (steady, [v * 0.5 for v in steady]),
        "unresolved": ([60.0, 100.0, 140.0, 80.0, 120.0], [90.0, 95.0, 100.0, 105.0, 110.0]),
    }
    for verdict, (a, b) in cases.items():
        (tmp_path / "a.json").write_text(json.dumps(result(a)))
        (tmp_path / "b.json").write_text(json.dumps(result(b)))
        done = bench("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        row = next(l for l in done.stdout.splitlines() if l.startswith("compose-wide150"))
        assert f" {verdict} (" in row, (verdict, row)
        assert "x of A's" in row
        assert (done.returncode != 0) == (verdict == "worse")


def test_exits_nonzero_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = bench("--workload", "place256-bid", "--seed", "3", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
