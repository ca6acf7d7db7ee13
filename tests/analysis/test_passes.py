"""Unit tests for the individual analysis passes."""

import pytest

from repro.analysis import AnalysisContext, ClusterSpec, analyze_cnx
from repro.analysis.diagnostics import Severity
from repro.analysis.passes import argument_problem, parse_multiplicity
from repro.core.cnx.schema import CnxClient, CnxDocument, CnxJob, CnxTask, CnxTaskReq


#: the argument expression that reached ``os`` through ``eval``
ESCAPE = (
    "[c for c in ().__class__.__base__.__subclasses__() "
    "if c.__name__ == 'catch_warnings'][0]()._module"
    ".__builtins__['__import__']('os').sep"
)

#: what the arguments grammar refuses: attribute access, lambda, walrus,
#: ``_``-prefixed names, calls other than the safe builtins
OUTSIDE_THE_GRAMMAR = [
    ESCAPE,
    "__import__('os').getcwd()",
    "[x.real for x in range(2)]",
    "(lambda: [(1,)])()",
    "[(y := 1)]",
    "[(_k,) for _k in range(2)]",
    "open('x')",
    "max([[1]], key=len)",
    "[f'{i}' for i in range(2)]",
]

#: every argument expression the repository writes (apps, tests,
#: benchmarks, examples), and more the grammar admits
INSIDE_THE_GRAMMAR = [
    "[(i,) for i in range(1, n_workers + 1)]",
    "[(i,) for i in range(1, n + 1)]",
    "[(i,) for i in range(n)]",
    "range(2)",
    "[(1,), (2,)]",
    "[[1, 2], [3, 4]]",
    repr([(i,) for i in range(3)]),
    "[]",
    "[(i, j) for i in range(n) for j in {1, 2} if i != j and not i > 5]",
    "list(range(max(1, min(n, len([0, 1])))))[1:] if n % 2 == 0 else [(-n,)]",
]


def doc_of(*jobs: CnxJob, cls="Client", port=5666) -> CnxDocument:
    return CnxDocument(CnxClient(cls=cls, port=port, jobs=list(jobs)))


def task(name, depends=(), **kw) -> CnxTask:
    kw.setdefault("jar", "t.jar")
    kw.setdefault("cls", f"pkg.{name.title()}")
    return CnxTask(name=name, depends=list(depends), **kw)


class TestStructurePass:
    def test_clean_job_is_clean(self):
        report = analyze_cnx(doc_of(CnxJob(tasks=[task("a"), task("b", ["a"])])))
        assert report.ok and not report.warnings()

    def test_duplicate_name(self):
        report = analyze_cnx(doc_of(CnxJob(tasks=[task("a"), task("a")])))
        assert "CN101" in report.codes()
        assert any("duplicate task name 'a'" in d.message for d in report)

    def test_dangling_depends(self):
        report = analyze_cnx(doc_of(CnxJob(tasks=[task("a", ["ghost"])])))
        assert "CN102" in report.codes()
        assert any(
            "depends on unknown task 'ghost'" in d.message for d in report
        )

    def test_self_dependency_is_distinct_code(self):
        report = analyze_cnx(doc_of(CnxJob(tasks=[task("a", ["a"])])))
        assert "CN103" in report.codes()
        assert "CN104" not in report.codes()  # self-loop is not double-flagged

    def test_cycle(self):
        report = analyze_cnx(
            doc_of(CnxJob(tasks=[task("a", ["b"]), task("b", ["a"])]))
        )
        assert "CN104" in report.codes()
        assert any("dependency cycle through task" in d.message for d in report)

    def test_orphan_flagged_only_in_wired_jobs(self):
        wired = CnxJob(tasks=[task("a"), task("b", ["a"]), task("stray")])
        assert "CN105" in analyze_cnx(doc_of(wired)).codes()
        # a batch of fully independent tasks is a legitimate shape
        batch = CnxJob(tasks=[task("a"), task("b"), task("c")])
        assert "CN105" not in analyze_cnx(doc_of(batch)).codes()


class TestConfigPass:
    def test_legacy_message_phrasing(self):
        bad = task("a")
        bad.task_req = CnxTaskReq(memory=0, runmodel="RUN_VERY_FAST", retries=-2)
        report = analyze_cnx(doc_of(CnxJob(tasks=[bad]), port=99999, cls=""))
        messages = [d.message for d in report.errors()]
        assert any("has non-positive memory 0" in m for m in messages)
        assert any("has unknown runmodel 'RUN_VERY_FAST'" in m for m in messages)
        assert any("has negative retries -2" in m for m in messages)
        assert "client has empty class name" in messages
        assert "client port 99999 out of range" in messages

    def test_param_type_checking(self):
        from repro.core.cnx.schema import CnxParam

        bad = task("a")
        bad.params = [
            CnxParam("Integer", "7"),
            CnxParam("Integer", "seven"),
            CnxParam("Boolean", "maybe"),
            CnxParam("Double", "not-a-float"),
            CnxParam("String", "anything goes"),
            CnxParam("Exotic", "?"),
        ]
        report = analyze_cnx(doc_of(CnxJob(tasks=[bad])))
        cn206 = report.by_code("CN206")
        assert len(cn206) == 3
        assert all(d.severity is Severity.ERROR for d in cn206)
        cn209 = report.by_code("CN209")
        assert len(cn209) == 1 and cn209[0].severity is Severity.WARNING


class TestDynamicsPass:
    def test_multiplicity_grammar(self):
        assert parse_multiplicity("") == (0, None)
        assert parse_multiplicity("*") == (0, None)
        assert parse_multiplicity("3") == (3, 3)
        assert parse_multiplicity("1..4") == (1, 4)
        assert parse_multiplicity("2..*") == (2, None)
        assert parse_multiplicity("a..b") is None
        assert parse_multiplicity("1..2..3") is None
        assert parse_multiplicity("-1") is None

    @pytest.mark.parametrize("expression", OUTSIDE_THE_GRAMMAR)
    def test_cn305_refuses_an_expression_outside_the_grammar(self, expression):
        dyn = task("w", dynamic=True, multiplicity="*", arguments=expression)
        (finding,) = analyze_cnx(doc_of(CnxJob(tasks=[dyn]))).errors()
        assert finding.code == "CN305"
        assert "outside the arguments grammar" in finding.message

    @pytest.mark.parametrize("expression", INSIDE_THE_GRAMMAR)
    def test_the_grammar_admits_what_the_repository_writes(self, expression):
        assert argument_problem(expression) == ""

    def test_dynamic_codes(self):
        lacking = task("a", dynamic=True)
        malformed = task("b", dynamic=True, multiplicity="x..y")
        impossible = task("c", dynamic=True, multiplicity="5..2")
        notdynamic = task("d", multiplicity="0..*")
        badexpr = task("e", dynamic=True, multiplicity="*", arguments="[(i,) for")
        report = analyze_cnx(
            doc_of(CnxJob(tasks=[lacking, malformed, impossible, notdynamic, badexpr]))
        )
        for code in ("CN301", "CN302", "CN303", "CN304", "CN305"):
            assert code in report.codes(), code
        assert any(
            "dynamic task 'a' lacks multiplicity" in d.message for d in report
        )
        assert any(
            "has dynamic attributes but is not marked dynamic" in d.message
            for d in report
        )


class TestFanShapePass:
    def test_partial_join_warns(self):
        job = CnxJob(
            tasks=[
                task("split"),
                task("w1", ["split"]),
                task("w2", ["split"]),
                task("w3", ["split"]),
                task("join", ["w1", "w2"]),  # w3 bypasses the barrier
            ]
        )
        report = analyze_cnx(doc_of(job))
        cn401 = report.by_code("CN401")
        assert len(cn401) == 1
        assert cn401[0].severity is Severity.WARNING
        assert "w3" in cn401[0].message

    def test_full_join_is_clean(self):
        job = CnxJob(
            tasks=[
                task("split"),
                task("w1", ["split"]),
                task("w2", ["split"]),
                task("join", ["w1", "w2"]),
            ]
        )
        assert "CN401" not in analyze_cnx(doc_of(job)).codes()


class TestMessageFlowPass:
    def test_matched_protocol_is_clean(self):
        job = CnxJob(
            tasks=[
                task("a", sends=["b"]),
                task("b", ["a"], receives=["a"]),
            ]
        )
        report = analyze_cnx(doc_of(job))
        assert not {c for c in report.codes() if c.startswith("CN5")}

    def test_wildcard_matches_everything(self):
        job = CnxJob(
            tasks=[
                task("a", sends=["*"]),
                task("b", ["a"], receives=["a"]),
                task("c", ["a"], receives=["*"]),
            ]
        )
        report = analyze_cnx(doc_of(job))
        assert not {c for c in report.codes() if c.startswith("CN5")}

    def test_receive_from_downstream_task(self):
        job = CnxJob(
            tasks=[
                task("first", receives=["second"]),
                task("second", ["first"], sends=["first"]),
            ]
        )
        report = analyze_cnx(doc_of(job))
        assert "CN505" in report.codes()

    def test_no_declarations_no_findings(self):
        job = CnxJob(tasks=[task("a"), task("b", ["a"])])
        assert not {
            c for c in analyze_cnx(doc_of(job)).codes() if c.startswith("CN5")
        }


class TestOrderingPass:
    def job(self, name, after=()):
        return CnxJob(tasks=[task(f"{name}-t")], name=name, after=list(after))

    def test_legacy_ordering_messages(self):
        report = analyze_cnx(
            doc_of(
                self.job("a", after=["ghost"]),
                self.job("b", after=["b"]),
                CnxJob(tasks=[task("x")], after=["a"]),
            )
        )
        messages = [d.message for d in report.errors()]
        assert any("is after unknown job 'ghost'" in m for m in messages)
        assert "job 'b' is after itself" in messages
        assert "a job with 'after' ordering must be named" in messages
        assert {"CN702", "CN703", "CN705"} <= report.codes()

    def test_duplicate_and_cycle(self):
        report = analyze_cnx(doc_of(self.job("a"), self.job("a")))
        assert "CN701" in report.codes()
        cyclic = analyze_cnx(
            doc_of(self.job("a", after=["b"]), self.job("b", after=["a"]))
        )
        assert "CN704" in cyclic.codes()
        assert any(
            "cyclic job ordering among" in d.message for d in cyclic.errors()
        )


class TestContextGatedPasses:
    def test_placement_skipped_without_cluster(self):
        big = CnxJob(tasks=[task(f"t{i}") for i in range(10)])
        assert not {
            c for c in analyze_cnx(doc_of(big)).codes() if c.startswith("CN6")
        }

    def test_placement_with_cluster(self):
        tasks = [task("split")] + [task(f"w{i}", ["split"]) for i in range(4)]
        ctx = AnalysisContext(
            cluster=ClusterSpec(nodes=1, memory_per_node=1500, slots_per_node=2)
        )
        report = analyze_cnx(doc_of(CnxJob(tasks=tasks)), ctx)
        assert {"CN601", "CN602"} <= report.codes()

    def test_single_task_too_big_for_any_node(self):
        t = task("huge")
        t.task_req = CnxTaskReq(memory=9000)
        ctx = AnalysisContext(cluster=ClusterSpec(nodes=2, memory_per_node=8000))
        report = analyze_cnx(doc_of(CnxJob(tasks=[t, task("b", ["huge"])])), ctx)
        assert "CN603" in report.codes()

    def test_dynamic_lower_bound_counts_for_placement(self):
        dyn = task("dyn", dynamic=True, multiplicity="8..*")
        ctx = AnalysisContext(
            cluster=ClusterSpec(nodes=1, memory_per_node=4000, slots_per_node=4)
        )
        report = analyze_cnx(doc_of(CnxJob(tasks=[dyn])), ctx)
        assert {"CN601", "CN602"} <= report.codes()

    def test_archive_pass_with_resolver(self):
        known = {("t.jar", "pkg.Good")}
        ctx = AnalysisContext(
            task_resolver=lambda jar, cls: (jar, cls) in known
        )
        good = task("g", cls="pkg.Good")
        bad = task("b", ["g"], cls="pkg.Missing")
        report = analyze_cnx(doc_of(CnxJob(tasks=[good, bad])), ctx)
        cn801 = report.by_code("CN801")
        assert len(cn801) == 1
        assert "'pkg.Missing'" in cn801[0].message

    def test_archive_pass_skipped_without_resolver(self):
        bad = task("b", cls="pkg.Missing")
        assert "CN801" not in analyze_cnx(doc_of(CnxJob(tasks=[bad]))).codes()


class TestLegacyWrappers:
    def test_validate_refuses_with_the_whole_report(self):
        from repro.core.cnx.validate import CnxValidationError, validate

        document = doc_of(CnxJob(tasks=[task("a", ["a"]), task("b", ["ghost"])]))
        with pytest.raises(CnxValidationError) as excinfo:
            validate(document)
        report = excinfo.value.report
        assert {"CN102", "CN103"} <= report.codes()
        assert excinfo.value.diagnostics == report.errors()
        assert "depends on unknown task 'ghost'" in str(excinfo.value)

    def test_the_error_is_one_class_by_every_import_path(self):
        from repro.cn.errors import CnxValidationError
        from repro.core.cnx.validate import CnxValidationError as by_module

        assert by_module is CnxValidationError
        assert issubclass(CnxValidationError, ValueError)

    def test_validate_passes_clean_document(self):
        from repro.core.cnx.validate import validate

        document = doc_of(CnxJob(tasks=[task("a"), task("b", ["a"])]))
        assert validate(document) is document
