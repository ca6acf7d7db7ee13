"""Names a simplicity PR deleted stay deleted, and a package exports
only what its callers import.

One row per deletion: where to look (paths from the repo root, ``**``
globs allowed, a leading ``!`` excludes), the pattern that must not
match there, and what removed it.  A pattern of ``None`` means the path
itself must not exist.  Add a row here, not a CI step.
"""

import ast
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
    (EVERYWHERE,
     r"\bJobSnapshot\b|\brestore_(deliveries|checkpoints|dead_letters)\b"
     r"|\b(pending|terminal)_tasks\(",
     "a job's journaled state has two forms, the live Job and the Job the "
     "journal folds into: no snapshot between them, no copy from one to the other"),
    ((*EVERYWHERE, "tooling/**/*", "!tests/xslt/test_lowering.py"),
     r"\b(find_rule|max_precedence|_current_(rule|node)|_deep_copy|_clone_out|add_tree"
     r"|add_comment|OutComment|extra_functions|message_stream"
     r"|xsl_(apply_imports|copy|copy_of|element|comment|message|sort|fallback"
     r"|processing_instruction))\b|base_dir=",
     "the XSLT engine takes what its one stylesheet uses: no import precedence, "
     "modes, sorting, copying, comment or message output, current(), and no "
     "loader or transformer keyword beside restore_prefixes"),
    ((*EVERYWHERE, "tooling/**/*", "!tests/xslt/test_lowering.py"),
     r"\bevaluate_(number|boolean|string|nodeset)\b|\bXComment\b|\bUnionExpr\b|\bUnaryMinus\b"
     r"|\b_axis_(ancestor|following|preceding)\w*"
     r"|\b_fn_(last|position|count|id|local_name|namespace_uri|string|starts_with|contains"
     r"|substring_(before|after)|normalize_space|translate|boolean|true|false|lang|number"
     r"|sum|floor|ceiling|round)\b|system-property|function-available|element-available",
     "the XPath evaluator says what its one stylesheet says: no reverse or "
     "sibling axis, union, unary minus, comment node, typed evaluate_ wrapper, "
     "core function beyond five, or XSLT function beyond key() and generate-id()"),
    (EVERYWHERE + ("!tests/cn/test_cluster_options.py",), r"\bfailure_k=",
     "a node is dead after two missed heartbeats (jobmanager.FAILURE_K), not an option"),
    (EVERYWHERE + ("!tests/transform/test_surface.py",), r"\bheartbeats=",
     "a portal's cluster is ticked by whoever built it, not by a portal switch"),
    (EVERYWHERE, r"\btick_sleep=",
     "the simulator's tick pause and watchdog deadlines are constants"),
    (EVERYWHERE, r"\breorder_hold=", "a reorder holds for chaos.REORDER_HOLD puts"),
    (EVERYWHERE + ("!tests/cn/test_archive_registry.py",), r"\bsearch_path=",
     "a registry's search path grows by add_search_dir only"),
    (EVERYWHERE + ("!tests/cn/test_chaos.py",), r"\bnodes_to_crash\b",
     "timed faults have one scheduler, the simulator's tick loop: no kill "
     "table on the policy for Cluster.tick to read back"),
    (EVERYWHERE, r"\bschedule_burst\b",
     "a storm is submitted by its driver, not scripted on the policy"),
    (EVERYWHERE, r"\bbursts_due\b",
     "the simulator's tick loop fires a burst event itself"),
    (EVERYWHERE + ("!tests/cn/test_chaos.py",), r"\bclear_log\b",
     "a fault log is read, never cleared"),
    (EVERYWHERE, r"\bon_cancel\b", "Task has no cancel hook that nothing calls"),
    (EVERYWHERE + ("!tests/transform/test_xmi2cnx.py",), r"\bgraph_to_cnx\b",
     "a graph reaches CNX through XMI: no third route beside the stylesheet "
     "and the native oracle"),
    (EVERYWHERE + ("!tests/cn/test_archive_registry.py",), r"\bknown_jars\b",
     "a registry lists nothing only its tests read"),
    (EVERYWHERE, r"\b_capture_jobs\b",
     "a portal submission's artifacts are views built when read, not copies"),
    (EVERYWHERE, r"\bBLOCKING_CALLS\b|\biter_elements\b",
     "no second blocking-call table beside static._BLOCKING, no XML walk "
     "nothing calls"),
    (EVERYWHERE,
     r"\bqueue_maxsize\b|\bqueue_policy\b|\bQUEUE_POLICIES\b|\bOverloaded\b"
     r"|\bnote_shed\b|\bslow_consumer\b|\bhigh_watermark\b|\bcan_host\b"
     r"|\btask_crash_rate\b",
     "task queues are unbounded, as in the paper; a rate nothing drew and a "
     "gate only tests asked go with them"),
    (("src/repro/cn/admission.py",), None,
     "the portal admits what it is given: no overload ladder in front of submit"),
    ((*EVERYWHERE, "tooling/**/*"),
     r"AdmissionController|TokenBucket|degrade_factor|total_queued_messages|X-Tenant"
     r"|cn_admission_|retry_after",
     "the portal admits what it is given: no tenant, quota, saturation score "
     "or Retry-After, and a dynamic job's budget is the cluster's free memory"),
    ((*EVERYWHERE, "tooling/**/*"),
     r"\bchecksums\b|\bverify_digests\b|\bseal\(|\bdigest_ok\b|\bpayload_digest\b"
     r"|\bcorrupt_copy\b|\bCORRUPT_MARKER\b|\bcorrupt_message\b|\bcorrupt_rate\b"
     r"|\bnote_poison\b|\bqueue_poisoned\b|\bdead_letter_events\b|\"dead-letter\""
     r"|\bcn_(queue_poisoned|dead_letters)_total\b",
     "one integrity check, where bytes cross a boundary: the codec's CRC on the "
     "proc wire; no per-message digest, in-memory corrupt fate or dead-letter "
     "quarantine"),
    ((*EVERYWHERE, "tooling/**/*"),
     r"\bBudgetExhausted\b|\bbudget_drops\b|\bcn_budget_drops_total\b|budget-exhausted"
     r"|budget-monotone|\bbudget_monotone\b|\bjob_deadline\b|\bbudget=",
     "a job ends by its tasks' own watchdogs (TaskSpec.deadline) and retries: "
     "no end-to-end job budget, stamped deadline or oracle that only checked it"),
    ((*EVERYWHERE, "tooling/**/*"),
     r"\bsubscriber_names\b|\bnew_graph\b|\bget_tag\b|\bhas_tag\b|\bheld_names\b",
     "names only tests called: their tests read what production code reads "
     "(a solicitation, add_graph, tags_dict, holds)"),
    ((*EVERYWHERE, "tooling/**/*"), r"\bjournal_dir\b|\block_verifier\b",
     "durable states the journal choice whole (False, True or a directory), "
     "and a verifier belongs to a verified_locks() scope, not to a cluster"),
    (("src/repro/cn/**/*", "src/repro/analysis/**/*", "examples/**/*", "benchmarks/**/*",
      "tests/cn/**/*", "tests/analysis/**/*"), r"\bverify_locking\b",
     "a cluster is verified by building it inside verified_locks(); only the "
     "simulator keeps the name, for a dimension of its own"),
    ((*EVERYWHERE, "tooling/**/*"),
     r"\badopted_jobs\b|\bfailed_nodes\b|\bunfinished_only\b|\bmanager_epoch\(|\bspan_children\b"
     r"|(backend|journal|single|batched|reloaded)\.job_ids\(",
     "a finished job leaves the cluster: no audit list that grows with its history, "
     "and no reader only tests called (they read the directory, the client messages, "
     "the failure detector and the records)"),
    (("src/repro/cn/jobmanager.py", "src/repro/cn/telemetry/spans.py",
      "src/repro/analysis/conc/annotations.py"),
     r"\b_active\b|\b_unfinished\b|\bself\._spans\b|SpanRecorder\._spans",
     "stores that keep the newest finished jobs need no index beside them: an offer "
     "reads the manager's jobs, and the span store is one dict per trace"),
    (EVERYWHERE,
     r"\.(payload_sizings|payload_reuses|payloads_pickle_sized|ledger_resident|ledger_peak"
     r"|ledger_truncated|messages_replayed)\b",
     "the Job keeps no tally only tests read: PERF11 reads the histogram, the ledger, "
     "the watermarks and the journal"),
    (EVERYWHERE,
     r"\.(dependents_of|roots|reachable|provides|register_archive|reply)\(|\.correlation\b"
     r"|correlation=|registry\.copy\(|award_bids\(.*seed",
     "no method, field or keyword that only tests called"),
    (("src/repro/**/*",),
     r"def (dependents_of|roots|reachable|provides|register_archive|reply)\b",
     "no method that only tests called"),
    (("src/repro/cn/registry.py", "src/repro/cn/scheduler.py"), r"def copy\b|\bseed\b",
     "the registry resolves from classes and the search path; awards have no seed"),
    (EVERYWHERE,
     r'"(active_jobs|wanted_tasks)"|(offer\)|\]\[1\])\["manager"\]|"(beat|hosted)"\s*:|\b_beats\b',
     "an offer carries what create_job sorts on, a heartbeat its node"),
    ((*EVERYWHERE, "!src/repro/cn/telemetry/metrics.py"),
     r"def dec\b|counter\(.*\)\.(dec|set|observe)\(|NULL_COUNTER\.(dec|set|observe)\b",
     "a task's counter has the registry Counter's surface on every transport"),
]

#: what counts as a caller of a package's exports: tests never do
CALLERS = ("src", "examples", "benchmarks", "tooling")
#: the generator of the step-4 client, whose import lines are callers too
CNX2CODE = ROOT / "src/repro/core/transform/cnx2code.py"


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


def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exports() -> dict[str, list[str]]:
    """Each package under ``src/repro`` with an ``__all__``: its names,
    dunders aside."""
    exports = {}
    for init in (ROOT / "src/repro").rglob("__init__.py"):
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exports[_module(init)] = [
                    name.value for name in node.value.elts
                    if not name.value.startswith("__")
                ]
    return exports


def _imports(path: Path, packages) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs *path* imports, or reads as
    ``module.name`` through a name bound to a package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    here = _module(path).split(".") if path.is_relative_to(ROOT / "src") else []
    if here and path.name != "__init__.py":
        here = here[:-1]
    found, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                found.add((module, alias.name))
                if f"{module}.{alias.name}" in packages:
                    bound[alias.asname or alias.name] = f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            module = bound[node.id]
            for attr in chain:
                found.add((module, attr))
                module = f"{module}.{attr}"
    return found


def test_a_package_exports_only_what_a_caller_imports():
    exports = _exports()
    used = {
        (module, name.strip())
        for module, names in re.findall(
            r'"\s*from ([\w.]+) import ([\w, ]+)\\n"', CNX2CODE.read_text()
        )
        for name in names.split(",")
    }
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            if not any(part in LEFTOVERS for part in path.parts):
                used |= _imports(path, exports)
    unused = [
        f"{package}.{name}"
        for package, names in sorted(exports.items())
        for name in names
        if (package, name) not in used
    ]
    assert not unused, (
        "exported, but imported by no file under src, examples, benchmarks or "
        "tooling, nor by the generated client -- import it from its module "
        "instead:\n" + "\n".join(unused)
    )
