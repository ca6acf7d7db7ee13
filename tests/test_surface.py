"""Names a simplicity PR deleted stay deleted.

One row per deletion: where to look (paths from the repo root, ``**``
globs allowed, a leading ``!`` excludes), the pattern that must not
match there, and what removed it.  A pattern of ``None`` means the path
itself must not exist.  Add a row here, not a CI step.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EVERYWHERE = ("src/**/*", "tests/**/*", "benchmarks/**/*", "examples/**/*")
#: what running leaves behind (see .gitignore), not source
LEFTOVERS = ("__pycache__", ".hypothesis", ".pytest_cache", "benchmarks/e2e/out")

DELETED = [
    (EVERYWHERE, r'transform="(native|xslt)"|codegen=',
     "PR 16: one transformer per stage, no selector"),
    (("src/repro/cn/jobmanager.py", "src/repro/cn/server.py"),
     r'offers\.sort|"free_slots"|"taskmanager"|_place_(inner|rule)',
     "PR 18: one placement round, one responder, one award"),
    (("src/repro/**/*",), r"shared_memory|shm_threshold|resource_tracker|_KIND_SHM",
     "PR 19: one frame segment kind, inline"),
    (("src/repro/cn/transport/base.py",), None,
     "PR 19: no one-implementation transport interface"),
    (("src/**/*", "tests/**/*"),
     r"note_undeliverable|undeliverable_events|clear_undeliverable|_undeliverable_lock",
     "PR 20: drops are recorded on their job, not process-wide"),
    (("src/repro/cn/**/*", "!src/repro/cn/job.py"), r'recipient="client"',
     "PR 20: Job.notify is the one construction site of a client notification"),
    (EVERYWHERE, r"delivery_batch|MessageType\.(RULE|BID|AWARD)",
     "PR 20: one delivery record kind, no unused message type"),
    (EVERYWHERE, r"\.etree\b(?!\.)|\betree=",
     "PR 22: XElement.etree, a field nothing read, kept every ET.Element alive"),
    (EVERYWHERE, r"_DOT_PREFIX_KINDS", "PR 22: a constant with no use"),
    (("src/repro/xslt/**/*",), r'getattr\(\w+, "_(name_index|desc)_cache"',
     "PR 22: every XNode has the cache slots; XNode.name_index() reads them"),
    (EVERYWHERE, r"_prefixed_to_parseable",
     "PR 22: XMI text goes to the engine as it is, undeclared UML: prefixes and all"),
    (EVERYWHERE, r"per_hop_latency|simulated_latency",
     "PR 23: a sum of a constant nothing read"),
    (EVERYWHERE, r"node_names=", "PR 23: servers are node0..nodeN-1"),
    (EVERYWHERE, r"retry_backoff=",
     "PR 23: JobManager.backoff is an attribute, like _sleeper beside it"),
    (("src/repro/cn/server.py",), r"def set_telemetry",
     "PR 23: components read ClusterConfig.telemetry at construction"),
    (("src/repro/cn/**/*",), r"jobmanager\.(checksums|scheduler) = ",
     "PR 23: options are read from the config, not assigned afterwards"),
    (("src/repro/**/*",),
     r"\b_name_list\b|\b_JAVA_TYPES\b|\b_(INT|FLOAT|BOOL|STRING)_TYPES\b|\biter_cn_tags\b"
     r"|\bKNOWN_RUNMODELS\b|\bCN_TAG_[A-Z]+\b",
     "PR 24: the CN profile is one table (CNProfile in core/uml/tags.py)"),
    ((*EVERYWHERE, ".github/**/*"),
     r"CN_TRANSPORT|CN_SCHEDULER|CN_VERIFY_LOCKING|sweep_options|\bswept\b"
     r"|__wrapped__|Cluster\.__init__\s*=|^\s*sweep:",
     "one construction path: the simulator draws the configuration, no "
     "environment variable re-wires Cluster.__init__ under test"),
    (EVERYWHERE, r"validate_graph|GraphValidationError|legacy_problems|build\(validate=",
     "a composition is checked once, by cnlint, at the pipeline's step 1: no "
     "second validator, no second refusal error, no unchecked build switch"),
    (EVERYWHERE,
     r"\b(transform_file|with_node|node_test_matches|find_package|declared_guard"
     r"|is_error|archive_for|in_worker)\b",
     "public names no caller used, by an AST census of src, tests, benchmarks "
     "and examples"),
    (EVERYWHERE, r"\bClientRunner\b|\bClientResult\b|degrade=|create_job\([^)]*descriptor=",
     "the generated client is the one executor of a descriptor: no interpreter "
     "beside it, no switch to turn degradation off, no descriptor on the job record"),
    (("src/repro/cn/telemetry/samplers.py",), None,
     "state reaches the registry one way, folded in when it is read"),
    (EVERYWHERE, r"\bsample_(cluster|node)\b|\b_m_(routed|unsized)\b|\bunwatch\(",
     "no per-tick sampler, no second count of routed messages, no unused "
     "FailureDetector.unwatch"),
    (("src/repro/core/transform/stylesheets/cnx2py.xsl",
      "src/repro/core/transform/stylesheets/cnx2java.xsl",
      "src/repro/core/transform/stylesheets/strings.xsl"), None,
     "step 4 has one generator per target, the one that runs: no stylesheet "
     "edition of CNX2Py or CNX2Java"),
    (EVERYWHERE,
     r"\bcnx_to_(python|java)_xslt\b|\b_run_codegen_stylesheet\b|XSLT edition",
     "step 4's generators are checked against the descriptor, not against a "
     "second generator"),
]


def files(where):
    """The files the path specs in *where* select, leftovers and this
    table (which spells every pattern out) aside."""
    excluded = {ROOT / spec[1:] for spec in where if spec.startswith("!")}
    excluded.add(Path(__file__).resolve())
    for spec in where:
        if spec.startswith("!"):
            continue
        for path in ROOT.glob(spec):
            if (
                path.is_file()
                and path not in excluded
                and not any(
                    f"/{name}/" in f"/{path.relative_to(ROOT).as_posix()}"
                    for name in LEFTOVERS
                )
            ):
                yield path


@pytest.mark.parametrize(
    "where, pattern, deleted_by",
    DELETED,
    ids=[
        f"row{i}-PR{row[2][3:5]}" if row[2].startswith("PR ") else f"row{i}"
        for i, row in enumerate(DELETED)
    ],
)
def test_a_deleted_name_does_not_come_back(where, pattern, deleted_by):
    if pattern is None:
        found = [str(path.relative_to(ROOT)) for path in files(where)]
    else:
        forbidden = re.compile(pattern)
        found = [
            f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for path in files(where)
            for number, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(), 1
            )
            if forbidden.search(line)
        ]
    assert not found, f"{deleted_by} -- came back:\n" + "\n".join(found)
