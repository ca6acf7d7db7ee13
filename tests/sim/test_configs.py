"""Every configuration the constructor accepts runs under the oracles.

A fixed seed set, drawn by the same generator as ``python -m repro.sim``,
that between its runs draws every value of every cluster dimension a
:class:`~repro.sim.Schedule` carries and is green under every oracle --
and whose runs under the lock verifier observe every lock-order edge the
runtime takes.  This is the suite's one statement of configuration
coverage; a test whose subject is one transport or scheduler value says
so with its own ``parametrize``.
"""

import ast
from dataclasses import fields
from itertools import product
from pathlib import Path

import pytest

import repro.sim
from repro.analysis.conc import runtime
from repro.cn import ClusterConfig
from repro.cn.config import SCHEDULERS
from repro.cn.queues import QUEUE_POLICIES
from repro.sim import Schedule, Simulation, generate, run_oracles
from repro.sim.schedule import FAN_CALLS

SEEDS = range(165, 173)
SHAPE = dict(n=6, workers=2, nodes=3)

#: the lock-order edges (holder, acquired) the runtime takes
RUNTIME_EDGES = {
    ("Cluster._tick_lock", "MessageQueue._cond"),
    ("Cluster._tick_lock", "MulticastBus._lock"),
    ("Cluster._tick_lock", "TaskManager._lock"),
    ("Cluster._tick_lock", "VirtualClock._lock"),
    ("JobManager._lock", "Job._lock"),
    ("JobManager._lock", "TaskManager._lock"),
    ("ReplicatedJournal._lock", "FileJournal._lock"),
    ("ReplicatedJournal._lock", "MemoryJournal._lock"),
    ("ReplicatedJournal._lock", "MulticastBus._lock"),
    ("TaskManager._lock", "ChaosPolicy._script_lock"),
    ("TaskManager._lock", "VirtualClock._lock"),
}


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as patch:
        # a private lock-order graph: nothing another test left installed
        patch.setattr(runtime, "_installed", None)
        patch.setattr(runtime, "_install_count", 0)
        return {
            seed: Simulation(seed, generate(seed, nodes=3, workers=2), **SHAPE).run()
            for seed in SEEDS
        }


def test_the_seed_set_draws_every_value_of_every_dimension(runs):
    schedules = [result.schedule for result in runs.values()]

    def drawn(value):
        return {value(schedule) for schedule in schedules}

    assert drawn(lambda s: (s.scheduler, s.fan_call)) == set(
        product(SCHEDULERS, FAN_CALLS)
    )
    assert drawn(lambda s: (s.durable, s.journal_dir is not None)) == {
        (False, False),
        (True, False),
        (True, True),
    }
    assert drawn(lambda s: s.checksums) == {False, True}
    assert {s.queue_policy for s in schedules if s.queue_maxsize} == set(
        QUEUE_POLICIES
    )
    assert drawn(lambda s: s.verify_locking) == {False, True}


@pytest.mark.parametrize("seed", SEEDS)
def test_every_run_is_green(runs, seed):
    result = runs[seed]
    assert result.done, result.error
    assert run_oracles(result) == {}


def test_the_verified_runs_observe_every_runtime_lock_order_edge(runs):
    observed = set().union(*(result.lock_edges for result in runs.values()))
    assert RUNTIME_EDGES - observed == set()


def test_each_config_field_is_the_cluster_option_with_its_default():
    options = {f.name: f.default for f in fields(ClusterConfig)}
    defaults = {f.name: f.default for f in fields(Schedule)}
    for name in Schedule.CONFIG_FIELDS:
        assert defaults[name] == options[name], name


def test_the_simulator_restates_no_cluster_default():
    # what ClusterConfig defaults a string option to is said there only
    restatable = {
        f.default
        for f in fields(ClusterConfig)
        if f.name in Schedule.CONFIG_FIELDS and isinstance(f.default, str)
    }
    package = Path(repro.sim.__file__).parent
    restated = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value in restatable
    ]
    assert restated == []
