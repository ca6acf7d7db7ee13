"""Code generation tests: CNX2Py output runs; CNX2Java output is
structurally sound, in ``after`` order, with valid distinct variables."""

import re

import pytest

from repro.cn import Cluster
from repro.core.cnx import CnxJob, CnxParam, CnxTask
from repro.core.cnx.schema import CnxClient, CnxDocument
from repro.core.transform.cnx2code import GeneratedClient, cnx_to_java, cnx_to_python
from repro.core.uml import CNProfile

from ..conftest import basic_registry, record_client


def doc_static():
    return CnxDocument(
        CnxClient(
            "Demo",
            log="demo.log",
            jobs=[
                CnxJob(
                    tasks=[
                        CnxTask("a", "echo.jar", "test.Echo",
                                params=[CnxParam("Integer", "1"), CnxParam("String", "x")]),
                        CnxTask("b", "echo.jar", "test.Echo", depends=["a"]),
                        CnxTask("c", "echo.jar", "test.Echo", depends=["a", "b"]),
                    ]
                )
            ],
        )
    )


def doc_dynamic():
    return CnxDocument(
        CnxClient(
            "DynDemo",
            jobs=[
                CnxJob(
                    tasks=[
                        CnxTask("root", "echo.jar", "test.Echo"),
                        CnxTask("w", "echo.jar", "test.Echo", depends=["root"],
                                dynamic=True, multiplicity="0..*",
                                arguments="[(i,) for i in range(1, n + 1)]"),
                        CnxTask("sink", "echo.jar", "test.Echo", depends=["w"]),
                    ]
                )
            ],
        )
    )


class TestPythonGeneration:
    def test_source_is_compilable(self):
        source = cnx_to_python(doc_static())
        compile(source, "<gen>", "exec")

    def test_static_tasks_emitted_literally(self):
        source = cnx_to_python(doc_static())
        assert "TaskSpec(name='a', jar='echo.jar', cls='test.Echo'" in source
        assert "depends=('a', 'b')" in source
        assert "params=(1, 'x')" in source

    def test_single_dependency_tuple_syntax(self):
        source = cnx_to_python(doc_static())
        assert "depends=('a',)" in source  # valid 1-tuple

    def test_runs_and_respects_dag(self):
        client = GeneratedClient(cnx_to_python(doc_static()))
        with Cluster(2, registry=basic_registry()) as cluster:
            job_results = client.run(cluster, timeout=15)
        assert set(job_results[0]) == {"a", "b", "c"}
        assert job_results[0]["a"] == (1, "x")

    def test_dynamic_generation_runs(self):
        source = cnx_to_python(doc_dynamic())
        assert "submit_job(api, 'DynDemo', CnxJob([" in source
        client = GeneratedClient(source)
        with Cluster(2, registry=basic_registry()) as cluster:
            job_results = client.run(cluster, {"n": 3}, timeout=15)
        assert set(job_results[0]) == {"root", "w1", "w2", "w3", "sink"}

    def test_no_dynamic_import_when_static(self):
        assert "submit_job" not in cnx_to_python(doc_static())

    def test_docstring_carries_client_metadata(self):
        source = cnx_to_python(doc_static())
        assert "Demo" in source and "demo.log" in source

    def test_generated_client_requires_run(self):
        with pytest.raises(ValueError, match="run"):
            GeneratedClient("x = 1")

    def test_quoting_hostile_values(self):
        doc = CnxDocument(
            CnxClient(
                "Q",
                log="C:\\Users\\me\\cn.log",
                jobs=[CnxJob(name="two\nlines", tasks=[
                    CnxTask("t", "e'v\"il.jar", "test.Echo",
                            params=[CnxParam("String", "it's \"quoted\"")]),
                ])],
            )
        )
        namespace = {}
        exec(compile(cnx_to_python(doc), "<gen>", "exec"), namespace)
        assert "log file     : C:\\Users\\me\\cn.log\n" in namespace["__doc__"]

    def test_quote_escaping_in_task_spec(self):
        """Quotes and backslashes in an archive name or a string parameter
        reach the task the client creates unchanged."""
        doc = CnxDocument(
            CnxClient(
                "Q",
                jobs=[CnxJob(tasks=[
                    CnxTask("t", "e'v\"il.jar", "test.Echo",
                            params=[CnxParam("String", 'say "hi" \\ there')]),
                ])],
            )
        )
        calls, _ = record_client(doc)
        [spec] = [spec for verb, _, spec in calls if verb == "create_task"]
        assert (spec.jar, spec.params) == ("e'v\"il.jar", ('say "hi" \\ there',))


class TestJavaGeneration:
    def test_structure(self):
        java = cnx_to_java(doc_static())
        assert "public class Demo" in java
        assert "CNAPI api = CNAPI.initialize(5666" in java
        assert 'job1.createTask("a", "echo.jar", "test.Echo")' in java
        assert 'c.dependsOn("a")' in java and 'c.dependsOn("b")' in java
        assert "job1.start();" in java and "job1.join();" in java

    def test_param_typing(self):
        java = cnx_to_java(doc_static())
        assert "a.addParam(1);" in java  # Integer unquoted
        assert 'a.addParam("x");' in java  # String quoted

    def test_balanced_braces(self):
        java = cnx_to_java(doc_static())
        assert java.count("{") == java.count("}")

    def test_dynamic_marker(self):
        java = cnx_to_java(doc_dynamic())
        assert "setDynamic" in java

    def test_task_requirements(self):
        java = cnx_to_java(doc_static())
        assert 'new TaskRequirements(1000, "RUN_AS_THREAD_IN_TM")' in java

    @pytest.mark.parametrize("ptype, kind", sorted(CNProfile.PARAM_TYPES.items()))
    def test_a_typed_parameter_is_a_typed_java_literal(self, ptype, kind):
        """Every entry of the one type table, one valid value each: a
        non-string type is an unquoted Java literal, a string one escapes
        ``\\`` and ``"`` (as the archive and the log path do)."""
        value, literal = {
            "int": ("5", "5"),
            "float": ("1.5", "1.5f" if ptype == "Float" else "1.5d"),
            "bool": ("TRUE", "true"),
            "string": ('he said "x" \\', r'"he said \"x\" \\"'),
        }[kind]
        doc = doc_static()
        doc.client.log = "C:\\cn\\x.log"
        doc.jobs[0].tasks[1].jar = 'x"y.jar'
        doc.jobs[0].tasks[1].params = [CnxParam(ptype, value)]
        java = cnx_to_java(doc)
        assert f"b.addParam({literal});" in java
        assert r'CNAPI.initialize(5666, "C:\\cn\\x.log");' in java
        assert r'job1.createTask("b", "x\"y.jar", "test.Echo");' in java

    def test_jobs_run_in_after_order(self):
        """``[B after A, A]``: A is created, started and joined before B
        is created, as the Python client orders them."""
        doc = CnxDocument(
            CnxClient(
                "Ordered",
                jobs=[
                    CnxJob(name="B", after=["A"],
                           tasks=[CnxTask("b", "echo.jar", "test.Echo")]),
                    CnxJob(name="A", tasks=[CnxTask("a", "echo.jar", "test.Echo")]),
                ],
            )
        )
        lines = [line.strip() for line in cnx_to_java(doc).splitlines()]
        steps = [line for line in lines if line.startswith(("Job ", "job"))]
        assert steps == [
            'Job job2 = api.createJob("Ordered");',
            "job2.start();",
            "job2.join();",
            'Job job1 = api.createJob("Ordered");',
            "job1.start();",
            "job1.join();",
        ]

    def test_identifier_sanitization(self):
        """Names that are not identifiers, or that collide with each other,
        with a Java keyword or with ``api`` / ``args`` / a job variable, get
        a leading ``_`` and a numeric suffix; an identifier keeps its name."""
        names = ["task-1.x", "a-b", "a.b", "1st", "class", "api", "job1", "ok", "a_b"]
        doc = CnxDocument(
            CnxClient(
                "S",
                jobs=[
                    CnxJob(tasks=[CnxTask(n, "e.jar", "test.Echo") for n in names]),
                    CnxJob(tasks=[CnxTask("ok", "e.jar", "test.Echo")]),
                ],
            )
        )
        java = cnx_to_java(doc)
        declared = re.findall(r"Task (\w+) = job\d\.createTask\(\"([^\"]*)\"", java)
        assert declared == [
            ("task_1_x", "task-1.x"),
            ("a_b_2", "a-b"),
            ("a_b_3", "a.b"),
            ("_1st", "1st"),
            ("_class", "class"),
            ("api_2", "api"),
            ("job1_2", "job1"),
            ("ok", "ok"),
            ("a_b", "a_b"),
            ("ok_2", "ok"),
        ]
