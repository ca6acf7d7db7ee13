"""The construction surface of ``Cluster``: which options exist, what is
refused at construction, and that nothing in the library or its tests
reads the environment -- a configuration is written where it is used."""

import ast
import dataclasses
import inspect
import multiprocessing
import re
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis.ir import ClusterSpec
from repro.cn import ChaosPolicy, Cluster, ClusterConfig
from repro.cn.chaos import VirtualClock
from repro.cn.errors import ConfigError
from repro.cn.transport import ProcTransport

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="proc transport requires the fork start method",
)

OPTIONS = [
    "nodes",
    "registry",
    "memory_per_node",
    "slots_per_node",
    "chaos",
    "clock",
    "durable",
    "journal_dir",
    "telemetry",
    "verify_locking",
    "queue_maxsize",
    "queue_policy",
    "checksums",
    "transport",
    "scheduler",
]


def test_cluster_options_are_exactly_these():
    # a new option shows up here, in review; ROADMAP aim 2 asks that a PR
    # adding one removes one
    assert [f.name for f in dataclasses.fields(ClusterConfig)] == OPTIONS
    # ... and the constructor declares none of its own
    parameters = inspect.signature(Cluster.__init__).parameters
    assert [(p.name, p.kind) for p in parameters.values()] == [
        ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("nodes", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("options", inspect.Parameter.VAR_KEYWORD),
    ]
    with pytest.raises(TypeError, match="tick_period"):
        Cluster(2, tick_period=0.5)
    # two missed heartbeats declare a node dead: a constant, not an option
    with pytest.raises(TypeError, match="failure_k"):
        Cluster(2, failure_k=2)


def test_readme_table_lists_the_options_in_field_order():
    readme = Path(repro.__file__).parents[2] / "README.md"
    section = readme.read_text().split("## Cluster options")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert rows == OPTIONS[1:]


def test_defaults_are_stated_once():
    # the components a Cluster builds take the config; none restates an
    # option (or its old alias) as a parameter with a default of its own
    # (CNServer's required ``transport`` is the built backend: wiring)
    options = set(OPTIONS) | {"memory_capacity", "slots"}
    restated = []
    for module in ("server", "taskmanager", "jobmanager"):
        path = Path(repro.__file__).parent / "cn" / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                restated += [
                    f"{path.name}:{node.lineno} {arg.arg}"
                    for arg in defaulted if arg.arg in options
                ]
    assert restated == []
    spec, config = ClusterSpec(), ClusterConfig()
    assert (spec.nodes, spec.memory_per_node, spec.slots_per_node) == (
        config.nodes, config.memory_per_node, config.slots_per_node
    )


def test_src_reads_no_environment():
    # nor do the tests: no environment variable configures what they build
    root = Path(repro.__file__).parents[2]
    offenders = []
    sources = [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]
    for path in sorted(sources):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else None
            )
            if name in ("environ", "environb", "getenv", "putenv"):
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


class TestRefusedAtConstruction:
    @needs_fork
    @pytest.mark.parametrize("transport", ["proc", ProcTransport])
    @pytest.mark.parametrize(
        "options, names",
        [
            ({"chaos": ChaosPolicy(seed=1)}, "chaos"),
            ({"clock": VirtualClock()}, "VirtualClock"),
            ({"verify_locking": True}, "verify_locking"),
        ],
    )
    def test_proc_with_an_in_process_only_feature(self, transport, options, names):
        if not isinstance(transport, str):
            transport = transport()
        options = {"verify_locking": False, **options}
        with pytest.raises(ConfigError, match=names):
            Cluster(2, transport=transport, **options)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"transport": "carrier-pigeon"}, "unknown transport 'carrier-pigeon'"),
            ({"scheduler": "best-effort"}, "unknown scheduler 'best-effort'"),
            ({"queue_policy": "bogus"}, "unknown queue policy 'bogus'"),
            ({"queue_maxsize": -1}, "queue_maxsize must be >= 0"),
        ],
    )
    def test_values_outside_the_option_s_range(self, options, message):
        with pytest.raises(ConfigError, match=message):
            Cluster(2, **options)

    @pytest.mark.parametrize(
        "nodes, options, message",
        [
            (2, {"verify_locking": True, "queue_policy": "bogus"}, "queue policy"),
            (2, {"verify_locking": True, "memory_per_node": 0}, "memory_per_node must be >= 1.* got 0"),
            (0, {}, "nodes must be >= 1.* got 0"),
            (2, {"memory_per_node": -5}, "memory_per_node must be >= 1.* got -5"),
            (2, {"slots_per_node": 0}, "slots_per_node must be >= 1.* got 0"),
            (2, {"queue_maxsize": 1.5}, "queue_maxsize must be >= 0, an int; got 1.5"),
            (2, {"durable": False, "journal_dir": "/nowhere"}, "journal_dir='/nowhere'"),
            pytest.param(
                2, {"transport": "proc", "chaos": ChaosPolicy(seed=1)}, "chaos",
                marks=needs_fork,
            ),
        ],
    )
    def test_nothing_is_left_installed_by_a_refused_cluster(
        self, nodes, options, message
    ):
        from repro.analysis.conc.runtime import current_verifier

        before = current_verifier()  # a cluster some earlier test never shut down
        threads = threading.active_count()
        with pytest.raises(ConfigError, match=message) as refusal:
            Cluster(nodes, **options)
        assert isinstance(refusal.value, ValueError)
        assert current_verifier() is before
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
