"""Mutation testing the oracles: a deliberately broken join must be
caught, and the failing schedule must shrink to a tiny reproducer.

If the oracles cannot see a seeded bug, fuzzing is theater.  BuggyJoin
re-introduces the classic at-least-once hazard the real TCJoin guards
against: it counts *messages* instead of deduping by sender, so a
duplicated result delivery double-counts a block.  Under a schedule
that duplicates every delivery, the assembled matrix has the wrong
shape and the exactly-once oracle must fire -- while the real TCJoin
stays green under the identical schedule.

The cluster dimensions are held to the same standard: a defect in the
bid round's award fold (only a ``create_tasks`` fan under
``scheduler="bid"`` reaches it) and one in the on-disk journal (only
``durable="journal"`` reaches it) are each found by ``python -m repro.sim``
and shrunk to the dimensions that expose them, and neither is found
with its dimension pinned to the default.  A seeded lock inversion is
reported by the ``lock-order`` oracle instead of escaping the run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.conc.runtime import make_lock
from repro.apps.floyd import floyd_registry
from repro.apps.floyd.model import JOIN_CLASS, JOIN_JAR
from repro.apps.floyd.tasks import TCJoin
from repro.cn import scheduler
from repro.cn.durability import FileJournal
from repro.cn.task import Task
from repro.sim import Schedule, Simulation, generate, run_oracles
from repro.sim.cli import main
from repro.sim.reproducer import load_reproducer
from repro.sim.schedule import FaultEvent
from repro.sim.shrink import shrink_schedule


class BuggyJoin(Task):
    """TCJoin minus the (sender, epoch) dedup: trusts delivery counts."""

    def __init__(self, sink: str = "") -> None:
        pass

    def run(self, ctx):
        expected = len(ctx.my_dependencies())
        got = []
        while len(got) < expected:
            message = ctx.recv_matching(
                lambda m: m.is_user() and m.payload[0] == "result", timeout=60.0
            )
            got.append((message.payload[1], np.array(message.payload[2], dtype=float)))
        pieces = [block for _start, block in sorted(got, key=lambda e: e[0])]
        pieces = [block for block in pieces if block.size]
        result = np.vstack(pieces) if pieces else np.zeros((0, 0))
        return [list(map(float, row)) for row in result]


def buggy_registry():
    registry = floyd_registry()
    registry.register_class(JOIN_JAR, JOIN_CLASS, BuggyJoin)
    return registry


# duplicate_rate=1.0 retransmits every delivery (deterministically: a
# rate >= 1 bypasses the RNG); the benign events are shrinker chaff
DUPLICATING = Schedule(
    seed=101,
    duplicate_rate=1.0,
    events=(
        FaultEvent(1, "burst", arg=2),
        FaultEvent(2, "kill", "node2"),
        FaultEvent(6, "revive", "node2"),
        FaultEvent(10, "burst", arg=3),
    ),
)


def run_sim(schedule, registry_factory=None):
    sim = Simulation(
        schedule.seed,
        schedule,
        n=6,
        workers=2,
        nodes=3,
        max_ticks=300,
        registry_factory=registry_factory,
    )
    return sim.run()


class TestSeededDedupBug:
    def test_exactly_once_oracle_catches_the_mutant(self):
        result = run_sim(DUPLICATING, registry_factory=buggy_registry)
        findings = run_oracles(result)
        assert "exactly-once-result" in findings, (result.status, findings)

    def test_real_join_survives_the_same_schedule(self):
        result = run_sim(DUPLICATING)
        assert result.status == "done", result.error
        assert run_oracles(result) == {}

    def test_failure_shrinks_to_a_tiny_schedule(self):
        def still_fails(schedule):
            findings = run_oracles(
                run_sim(schedule, registry_factory=buggy_registry),
                only=["exactly-once-result"],
            )
            return bool(findings)

        shrunk, probes = shrink_schedule(DUPLICATING, still_fails, max_probes=20)
        # the dedup bug needs only the duplication rate: every structural
        # event is chaff and must be gone (acceptance bound is <= 6)
        assert len(shrunk.events) <= 6
        assert shrunk.events == ()
        assert shrunk.duplicate_rate == 1.0
        assert probes <= 20


# -- defects only a drawn dimension reaches ---------------------------------------

#: the fuzz shape and the seeds of tests/sim/test_configs.py
SHAPE = dict(n=6, workers=2, nodes=3)
CLI_SHAPE = ["--n", "6", "--workers", "2", "--nodes", "3", "--max-ticks", "120"]
SEEDS = range(165, 168)

real_fold = scheduler._fold
real_persist = FileJournal._persist


def fold_forgetting_the_last_task(rule, best):
    """The award fold with an off-by-one: the last task of a rule is
    neither awarded nor reported unplaced (only a round of more than one
    task folds; the paper's round of one takes the shortcut)."""
    return real_fold(rule._replace(tasks=rule.tasks[:-1]), best)


def persist_from_the_second_record(self, batch):
    """FileJournal._persist with an off-by-one: the first record of each
    batch never reaches the file."""
    real_persist(self, batch[1:])


DEFECTS = {
    "bid-round": (
        (scheduler, "_fold", fold_forgetting_the_last_task),
        {"scheduler": "bid", "fan_call": "create_tasks"},
    ),
    "durability": (
        (FileJournal, "_persist", persist_from_the_second_record),
        {"durable": "journal"},
    ),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_the_fuzzer_finds_the_defect_and_shrinks_it_to_its_dimensions(
    defect, monkeypatch, tmp_path
):
    (target, name, mutant), exposing = DEFECTS[defect]
    monkeypatch.setattr(target, name, mutant)
    argv = ["--seed", str(SEEDS[0]), "--runs", str(len(SEEDS)), *CLI_SHAPE]
    assert main([*argv, "--emit", str(tmp_path)]) == 1
    [path] = tmp_path.glob("*.json")
    shrunk = load_reproducer(path)["schedule"]
    assert shrunk.drawn() == exposing
    assert shrunk.events == ()


@pytest.mark.parametrize(
    "defect, pinned",
    [
        ("bid-round", {"scheduler": "solicit"}),
        ("bid-round", {"fan_call": "create_task"}),
        ("durability", {"durable": True}),
    ],
)
def test_with_its_dimension_pinned_to_the_default_the_defect_is_not_found(
    defect, pinned, monkeypatch
):
    (target, name, mutant), _ = DEFECTS[defect]
    monkeypatch.setattr(target, name, mutant)
    for seed in SEEDS:
        schedule = replace(generate(seed, nodes=3, workers=2), **pinned)
        assert run_oracles(Simulation(seed, schedule, **SHAPE).run()) == {}


class InvertingJoin(TCJoin):
    """TCJoin that first takes two locks in one order, then the other."""

    def run(self, ctx):
        first, second = make_lock("SeededA._lock"), make_lock("SeededB._lock")
        with first, second:
            pass
        with second, first:
            pass
        return super().run(ctx)


def inverting_registry():
    registry = floyd_registry()
    registry.register_class(JOIN_JAR, JOIN_CLASS, InvertingJoin)
    return registry


@pytest.mark.parametrize("verify_locking", [True, False])
def test_a_seeded_lock_inversion_is_reported_not_raised(verify_locking):
    schedule = Schedule(seed=7, verify_locking=verify_locking)
    result = Simulation(
        7, schedule, registry_factory=inverting_registry, **SHAPE
    ).run()
    assert result.done
    findings = run_oracles(result)
    if not verify_locking:
        assert findings == {}
        return
    [report] = findings.pop("lock-order")
    assert "SeededA._lock -> SeededB._lock" in report
    assert "SeededB._lock -> SeededA._lock" in report
    assert findings == {}
