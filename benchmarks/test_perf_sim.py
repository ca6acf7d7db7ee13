"""PERF14 -- simulation schedule throughput.

Nightly fuzzing only earns its keep if a budgeted wall-clock window
covers many schedules.  The dominant *fixed* cost per schedule is
generation + oracle evaluation (the cluster run itself scales with the
faults injected, which is the point of fuzzing), so this measures that
fixed pipeline against the artifacts of one real benign N=64 harness
run: generate a fresh schedule, graft it onto the recorded run, evaluate
every oracle.  Budget: >= 20 schedules/sec.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.sim import Schedule, Simulation, generate, run_oracles


@pytest.fixture(scope="module")
def benign_run():
    """One real harness run (Floyd N=64, no faults) reused as the
    oracle-evaluation substrate for every generated schedule."""
    result = Simulation(0, Schedule(seed=0), n=64, workers=3, nodes=4).run()
    assert result.done, result.error
    assert run_oracles(result) == {}
    return result


def test_schedule_generation_and_oracle_throughput(benign_run, report):
    schedules = 120
    start = time.perf_counter()
    for seed in range(schedules):
        schedule = generate(seed)
        grafted = dataclasses.replace(benign_run, seed=seed, schedule=schedule)
        findings = run_oracles(grafted)
        # a benign run never violates the schedule-independent oracles
        assert "exactly-once-result" not in findings
    elapsed = time.perf_counter() - start
    rate = schedules / elapsed
    report.line("PERF14 -- schedule generation + oracle evaluation")
    report.line(f"(substrate: one benign Floyd N=64 run, {schedules} schedules)")
    report.table(
        ["metric", "value"],
        [
            ["schedules", str(schedules)],
            ["elapsed s", f"{elapsed:.3f}"],
            ["schedules/sec", f"{rate:.1f}"],
        ],
    )
    assert rate >= 20, f"{rate:.1f} schedules/sec (budget: >= 20)"
