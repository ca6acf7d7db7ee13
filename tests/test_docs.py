"""The docs cite what exists, and stay short enough to keep true.

README, DESIGN and EXPERIMENTS are the one artifact written by hand, so
tier-1 checks what they cite: every ``Class.attr`` a backticked span
names, every benchmark module in DESIGN §4's index, a ``### PERF<n>``
section for every experiment the code cites, and every test file and
test name they point at.  Together they hold ``MAX_DOC_LINES`` lines.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
MAX_DOC_LINES = 2000
#: where the code cites experiments by id
CITERS = ("src", "tests", "benchmarks", "tooling", ".github")

BACKTICKED = re.compile(r"`([^`\n]+)`")
CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")
PERF_ID = re.compile(r"\bPERF(\d+)\b")
CITED_PATH = re.compile(r"^(?:src|tests|benchmarks|tooling|examples)/[\w/.*-]+$")
TEST_NAME = re.compile(r"(?<![\w.])(test_\w+)(?![\w.])")


def doc_text(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def backticked() -> list[tuple[str, str]]:
    return [
        (name, span) for name in DOCS for span in BACKTICKED.findall(doc_text(name))
    ]


def python_files(*tops: str) -> list[Path]:
    return [
        path
        for top in tops
        for path in (ROOT / top).rglob("*.py")
        if "__pycache__" not in path.parts
    ]


def class_members() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Class name -> the names its body defines and the attributes its
    methods assign on ``self`` or ``cls``, and class name -> the names of
    its bases (classes sharing a name are merged)."""
    members: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in python_files("src/repro"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = members.setdefault(node.name, set())
            bases.setdefault(node.name, set()).update(
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                for target in getattr(item, "targets", [getattr(item, "target", None)]):
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            names.update(
                item.attr
                for item in ast.walk(node)
                if isinstance(item, ast.Attribute)
                and isinstance(item.ctx, ast.Store)
                and isinstance(item.value, ast.Name)
                and item.value.id in ("self", "cls")
            )
    return members, bases


def has_member(cls: str, attr: str, members, bases, seen=()) -> bool:
    if attr in members.get(cls, ()):
        return True
    return any(
        has_member(base, attr, members, bases, (*seen, cls))
        for base in bases.get(cls, ())
        if base in members and base not in seen
    )


def section(text: str, heading: str) -> str:
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def test_the_docs_fit_their_budget():
    lines = {name: len(doc_text(name).splitlines()) for name in DOCS}
    assert sum(lines.values()) <= MAX_DOC_LINES, lines


def test_every_cited_class_attribute_exists():
    members, bases = class_members()
    cited = [
        (name, span, cls, attr)
        for name, span in backticked()
        for cls, attr in CLASS_ATTR.findall(span)
        if cls in members
    ]
    assert len(cited) >= 50  # the check reads the docs it guards
    stale = sorted(
        {
            f"{name}: `{span}` ({cls}.{attr})"
            for name, span, cls, attr in cited
            if not has_member(cls, attr, members, bases)
        }
    )
    assert not stale, "\n".join(stale)


def test_every_benchmark_module_is_in_the_experiment_index():
    index = section(doc_text("DESIGN.md"), "## 4. Experiment index")
    missing = [
        path.name
        for path in sorted((ROOT / "benchmarks").glob("test_*.py"))
        if path.name not in index
    ]
    assert not missing


def test_every_cited_experiment_has_a_section():
    headings = set(re.findall(r"^### PERF(\d+)\b", doc_text("EXPERIMENTS.md"), re.M))
    sources = [ROOT / name for name in DOCS] + [
        path
        for top in CITERS
        for path in (ROOT / top).rglob("*")
        if path.suffix in (".py", ".yml", ".md", ".txt")
        and "__pycache__" not in path.parts
    ]
    cited: dict[str, set[str]] = {}
    for path in sources:
        for number in PERF_ID.findall(path.read_text(encoding="utf-8")):
            cited.setdefault(number, set()).add(str(path.relative_to(ROOT)))
    assert len(cited) >= 10
    missing = {n: sorted(where) for n, where in cited.items() if n not in headings}
    assert not missing


def test_every_cited_path_exists():
    missing = sorted(
        {
            f"{name}: {span}"
            for name, span in backticked()
            if CITED_PATH.match(span.split("::")[0])
            and not list(ROOT.glob(span.split("::")[0]))
        }
    )
    assert not missing, "\n".join(missing)


def test_every_cited_test_exists():
    defined: set[str] = set()
    for path in python_files("tests", "benchmarks"):
        defined.add(path.stem)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    missing = sorted(
        {
            f"{name}: {test}"
            for name, span in backticked()
            for test in TEST_NAME.findall(span)
            if test not in defined and "*" not in span
        }
    )
    assert not missing, "\n".join(missing)

