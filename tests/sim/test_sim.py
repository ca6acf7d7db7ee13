"""End-to-end simulation harness tests: one real cluster per run."""

import json
from dataclasses import replace

import pytest

from repro.analysis.conc.runtime import current_verifier
from repro.cn import ConfigError
from repro.sim import (
    Schedule,
    Simulation,
    emit_reproducer,
    generate,
    load_reproducer,
    run_oracles,
)


class TestFaultFreeRun:
    def test_completes_green_without_watchdogs(self):
        sim = Simulation(0, Schedule(seed=0), n=6, workers=2, nodes=3)
        result = sim.run()
        assert result.status == "done"
        assert run_oracles(result) == {}
        # fault-free runs must not arm deadlines or budgets: a loaded
        # host machine cannot fail a benign schedule
        assert result.job_deadline is None
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
        assert result.job_deadline is not None  # hazards arm the budget


class TestTheDrawnCluster:
    def test_a_combination_the_constructor_refuses_is_refused_not_skipped(self):
        before = current_verifier()
        schedule = Schedule(
            seed=0, durable=False, journal_dir="journal", verify_locking=True
        )
        with pytest.raises(ConfigError, match="journal_dir"):
            Simulation(0, schedule, n=6, workers=2, nodes=3).run()
        assert current_verifier() is before

    def test_a_run_with_its_journal_on_disk_is_green(self):
        # the oracles read the journal back from its file (a defect only
        # the file has is found: tests/sim/test_mutation.py)
        schedule = Schedule(seed=0, journal_dir="journal", fan_call="create_tasks")
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
