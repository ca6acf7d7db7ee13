"""End-to-end simulation harness tests: one real cluster per run."""

import json
from dataclasses import replace

import pytest

from repro.analysis.conc.runtime import current_verifier
from repro.cn.errors import ConfigError
from repro.sim import Schedule, Simulation, generate, run_oracles
from repro.sim.reproducer import emit_reproducer, load_reproducer
from repro.sim.schedule import FaultEvent


def watchdog_deadlines(result):
    """The ``TaskSpec.deadline`` of every task the run journaled."""
    return {r.data["spec"].deadline for r in result.records if r.kind == "task-spec"}


class TestFaultFreeRun:
    def test_completes_green_without_watchdogs(self):
        sim = Simulation(0, Schedule(seed=0), n=6, workers=2, nodes=3)
        result = sim.run()
        assert result.status == "done"
        assert run_oracles(result) == {}
        # fault-free runs must not arm watchdog deadlines: a loaded host
        # machine cannot fail a benign schedule
        assert watchdog_deadlines(result) == {None}
        assert result.fault_summary == []
        assert result.schedule.has_faults() is False
        assert result.records  # the journal survived for the oracles


class TestGeneratedScheduleRun:
    def test_seeded_faulty_run_converges_green(self):
        # seed 2's generated schedule carries rates and structural events
        schedule = generate(2)
        assert schedule.has_faults()
        sim = Simulation(2, schedule, n=6, workers=2, nodes=4)
        result = sim.run()
        assert result.status == "done", result.error
        assert run_oracles(result) == {}
        assert None not in watchdog_deadlines(result)  # hazards arm them


class TestTimedEvents:
    def test_every_kill_lands_at_its_tick_after_that_tick_s_other_events(self):
        # the driver's loop is the one scheduler: a victim drawn twice is
        # killed twice, and a kill lands after its tick's partition (the
        # stalled split keeps the job open past the last event)
        events = (
            FaultEvent(0, "stall", "split", arg=1),
            FaultEvent(0, "stall", "split", arg=2),
            FaultEvent(1, "kill", "node1"),
            FaultEvent(1, "partition", "node0,node2"),
            FaultEvent(3, "heal"),
            FaultEvent(4, "revive", "node1"),
            FaultEvent(7, "kill", "node1"),
            FaultEvent(10, "revive", "node1"),
        )
        result = Simulation(0, Schedule(seed=0, events=events), n=6, workers=2).run()
        assert result.done, result.error
        assert run_oracles(result) == {}
        assert [
            (fault["kind"], fault["target"], fault["detail"].get("at_tick"))
            for fault in result.fault_log
            if fault["kind"] != "stall"
        ] == [
            ("partition", "node0,node2 | node1,node3", None),
            ("node-crash", "node1", 1),
            ("partition-heal", "*", None),
            ("node-revive", "node1", None),
            ("node-crash", "node1", 7),
            ("node-revive", "node1", None),
        ]


class TestTheDrawnCluster:
    def test_a_combination_the_constructor_refuses_is_refused_not_skipped(self):
        schedule = Schedule(seed=0, durable=None, verify_locking=True)
        with pytest.raises(ConfigError, match="got None"):
            Simulation(0, schedule, n=6, workers=2, nodes=3).run()
        assert current_verifier() is None

    def test_a_run_with_its_journal_on_disk_is_green(self):
        # the oracles read the journal back from its file (a defect only
        # the file has is found: tests/sim/test_mutation.py)
        schedule = Schedule(seed=0, durable="journal", fan_call="create_tasks")
        result = Simulation(0, schedule, n=6, workers=2, nodes=3).run()
        assert result.done and result.records
        assert run_oracles(result) == {}

    def test_a_run_without_a_journal_is_checked_by_the_other_oracles(self):
        schedule = Schedule(seed=0, durable=False)
        result = Simulation(0, schedule, n=6, workers=2, nodes=3).run()
        assert result.done and result.records == []
        assert run_oracles(result) == {}


class TestReproducerFiles:
    def test_emit_load_round_trip(self, tmp_path):
        schedule = generate(11)
        path = emit_reproducer(
            tmp_path,
            schedule,
            {"job-completes": ["did not finish"]},
            n=6,
            workers=2,
            nodes=3,
            note="unit-test",
        )
        assert path.name.startswith("seed11-")
        data = load_reproducer(path)
        assert data["schedule"] == schedule
        assert data["n"] == 6 and data["workers"] == 2 and data["nodes"] == 3
        assert data["violations"] == {"job-completes": ["did not finish"]}

    def test_the_digest_covers_the_cluster(self, tmp_path):
        schedule = generate(11)
        first = emit_reproducer(tmp_path, schedule, {})
        other = replace(schedule, verify_locking=not schedule.verify_locking)
        assert emit_reproducer(tmp_path, other, {}) != first

    def test_an_older_format_is_refused(self, tmp_path):
        path = emit_reproducer(tmp_path, generate(11), {})
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "version": 1}))
        with pytest.raises(ValueError, match="unsupported reproducer version 1"):
            load_reproducer(path)

    def test_same_schedule_overwrites(self, tmp_path):
        schedule = generate(11)
        first = emit_reproducer(tmp_path, schedule, {})
        second = emit_reproducer(tmp_path, schedule, {})
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1
