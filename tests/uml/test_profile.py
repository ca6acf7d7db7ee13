"""The CN profile of Fig. 4 is one table, ``CNProfile`` in
``repro.core.uml.tags``: nothing under ``src/repro`` restates one of its
defaults, and the copies that cannot import it -- the ``RunModel`` enum
(``core`` cannot import ``repro.cn``), the two stylesheets, README's
table -- are held equal to it here."""

import ast
import re
from pathlib import Path

import repro
from repro.cn import RunModel
from repro.core.transform.xmi2cnx import STYLESHEET_DIR
from repro.core.uml import CNProfile

SRC = Path(repro.__file__).parent
TABLE = "core/uml/tags.py"


def restated(tree: ast.AST):
    """Line numbers where *tree* writes down a profile default: the
    ``runmodel``, ``log`` or ``port`` default anywhere, 1000 as the
    default or fallback of something named ``memory*``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
            if node.value in ("RUN_AS_THREAD_IN_TM", "CN_Client.log", 5666):
                yield node.lineno
        named = []  # (name, value expression) pairs this node binds
        if isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            named += zip(positional[len(positional) - len(node.defaults):], node.defaults)
            named += zip(node.kwonlyargs, node.kw_defaults)
            named = [(arg.arg, value) for arg, value in named]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            named.append((node.target.id, node.value))
        elif isinstance(node, ast.Assign):
            named += [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.Call):
            named += [(k.arg or "", k.value) for k in node.keywords]
            if any(isinstance(a, ast.Constant) and a.value == "memory" for a in node.args):
                named += [("memory", a) for a in node.args]  # get_tag("memory", "1000")
        for name, value in named:
            if (
                name.lower().startswith(("memory", "default_memory"))
                and isinstance(value, ast.Constant)
                and value.value in (1000, "1000")
            ):
                yield value.lineno


def test_no_module_restates_a_profile_default():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        source = path.read_text()
        if relative != TABLE:
            found += [
                f"{relative}: {source.splitlines()[number - 1].strip()}"
                for number in sorted(set(restated(ast.parse(source, str(path)))))
            ]
    # the enum member is the one copy ``core`` cannot import (next test)
    assert found == ['cn/runmodel.py: RUN_AS_THREAD_IN_TM = "RUN_AS_THREAD_IN_TM"']
    # and the walk sees what it is meant to see: the table itself trips it
    assert set(restated(ast.parse((SRC / TABLE).read_text())))


def test_runmodel_enum_and_profile_name_the_same_models():
    assert tuple(member.value for member in RunModel) == CNProfile.RUNMODEL.choices
    assert RunModel(CNProfile.RUNMODEL.default) is RunModel.RUN_AS_THREAD_IN_TM


def test_the_stylesheets_copies_are_the_tables():
    xmi2cnx = (STYLESHEET_DIR / "xmi2cnx.xsl").read_text()
    params = dict(re.findall(r"<xsl:param name=\"(\w+)\" select=\"'([^']*)'\"/>", xmi2cnx))
    assert params == {field.tag: str(field.default) for field in CNProfile.CLIENT}
    assert f"<xsl:otherwise>{CNProfile.MULTIPLICITY.default}</xsl:otherwise>" in xmi2cnx


def test_readme_table_lists_the_profile_in_field_order():
    readme = SRC.parents[1] / "README.md"
    section = readme.read_text().split("### CN profile")[1].split("\n##")[0]
    rows = [
        tuple(cell.strip() for cell in line.strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    fields = CNProfile.TASK + CNProfile.CLIENT
    assert [row[0] for row in rows] == [f"`{field.tag}`" for field in fields]
    for (_, default, _, cnx, code), field in zip(rows, fields):
        if field.default is not None:
            assert default == f"`{field.default!r}`".replace("'", '"'), field.tag
        assert cnx.startswith(f"`{field.cnx}`"), field.tag
        assert code.startswith(field.code or "—"), field.tag


def test_read_fills_defaults_and_problems_names_each_violation_once():
    from repro.core.uml.activity import ActivityGraph

    graph = ActivityGraph("G")
    bare = graph.add_action("bare")
    raw, params, param_problem = CNProfile.read(bare)
    assert (raw["jar"], raw["class"], params, param_problem) == ("", "", [], "")
    assert {tag: raw[tag] for tag in ("memory", "runmodel", "retries")} == {
        "memory": "1000", "runmodel": "RUN_AS_THREAD_IN_TM", "retries": "0",
    }
    assert [code for code, _ in CNProfile.problems("bare", raw)] == ["CN201", "CN202"]
    CNProfile.apply(bare, jar="j", cls="C", retries=2, sends=["x"], receives=["*"])
    raw, _, _ = CNProfile.read(bare)
    assert (raw["retries"], raw["sends"], raw["receives"]) == ("2", "x", "*")
    assert list(CNProfile.problems("bare", raw)) == []
