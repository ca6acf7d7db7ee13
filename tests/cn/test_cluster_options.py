"""The construction surface of ``Cluster``: which options exist, what is
refused at construction, and that nothing under ``src/repro`` reads the
environment -- the CI sweeps go through ``tests/conftest.py`` alone."""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.cn import ChaosPolicy, Cluster, ConfigError
from repro.cn.chaos import VirtualClock
from repro.cn.transport import ProcTransport

needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="proc transport requires the fork start method",
)

#: the unwrapped constructor: what a user outside the test suite calls
plain_init = Cluster.__init__.__wrapped__

SWEEP_VARIABLES = ("CN_TRANSPORT", "CN_SCHEDULER", "CN_VERIFY_LOCKING")


@pytest.fixture
def no_sweep(monkeypatch):
    for name in SWEEP_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_cluster_options_are_exactly_these():
    # a new option shows up here, in review; ROADMAP aim 2 asks that a PR
    # adding one removes one
    parameters = inspect.signature(plain_init).parameters
    assert [p for p in parameters if p != "self"] == [
        "nodes",
        "registry",
        "memory_per_node",
        "slots_per_node",
        "per_hop_latency",
        "node_names",
        "chaos",
        "clock",
        "failure_k",
        "retry_backoff",
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
    keyword_only = inspect.Parameter.KEYWORD_ONLY
    assert all(
        p.kind is keyword_only for name, p in parameters.items()
        if name not in ("self", "nodes")
    )


def test_src_reads_no_environment():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
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

    def test_nothing_is_left_installed_by_a_refused_cluster(self, no_sweep):
        from repro.analysis.conc.runtime import current_verifier

        before = current_verifier()  # a cluster some earlier test never shut down
        with pytest.raises(ConfigError):
            Cluster(2, verify_locking=True, queue_policy="bogus")
        assert current_verifier() is before


class TestSweepWrapper:
    """``conftest.swept`` is how ``CN_TRANSPORT`` / ``CN_SCHEDULER`` /
    ``CN_VERIFY_LOCKING`` reach the clusters a test run builds."""

    def test_constructor_itself_ignores_the_variables(self, monkeypatch):
        monkeypatch.setenv("CN_TRANSPORT", "proc")
        monkeypatch.setenv("CN_SCHEDULER", "bid")
        monkeypatch.setenv("CN_VERIFY_LOCKING", "1")
        cluster = Cluster.__new__(Cluster)
        plain_init(cluster, 2)
        assert cluster.transport.name == "inproc"
        assert cluster.scheduler == "solicit"
        assert cluster.lock_verifier is None

    def test_value_applies_where_the_test_passed_none(self, no_sweep):
        no_sweep.setenv("CN_SCHEDULER", "bid")
        no_sweep.setenv("CN_VERIFY_LOCKING", "1")
        with Cluster(2) as c:
            assert c.scheduler == "bid"
            assert c.lock_verifier is not None
        no_sweep.setenv("CN_VERIFY_LOCKING", "0")
        with Cluster(2) as c:
            assert c.lock_verifier is None

    def test_explicit_argument_wins(self, no_sweep):
        no_sweep.setenv("CN_SCHEDULER", "bid")
        no_sweep.setenv("CN_VERIFY_LOCKING", "1")
        no_sweep.setenv("CN_TRANSPORT", "carrier-pigeon")
        with Cluster(
            2, scheduler="solicit", verify_locking=False, transport="inproc"
        ) as c:
            assert c.scheduler == "solicit"
            assert c.lock_verifier is None
            assert c.transport.name == "inproc"

    @needs_fork
    def test_falls_back_when_the_test_s_options_rule_the_value_out(self, no_sweep):
        no_sweep.setenv("CN_TRANSPORT", "proc")
        no_sweep.setenv("CN_SCHEDULER", "bid")
        with Cluster(2, chaos=ChaosPolicy(seed=1)) as c:
            # all of the sweep is dropped, not only the offending value:
            # the cluster is the one the test wrote
            assert c.transport.name == "inproc"
            assert c.scheduler == "solicit"

    def test_a_refusal_of_the_test_s_own_options_still_surfaces(self, no_sweep):
        no_sweep.setenv("CN_SCHEDULER", "bid")
        with pytest.raises(ConfigError, match="unknown queue policy"):
            Cluster(2, queue_policy="bogus")
