"""Deterministic simulation testing for the CN runtime.

A seeded :func:`~repro.sim.schedule.generate` produces a
:class:`~repro.sim.schedule.Schedule` -- the cluster drawn from what
:class:`~repro.cn.ClusterConfig` declares, and the faults; a
:class:`~repro.sim.harness.Simulation` runs a real cluster on virtual
time under that schedule; the oracle registry
(:data:`~repro.sim.oracles.ORACLES`) checks invariants over the
journal, result, and fault log; failures are delta-debug shrunk
(:func:`~repro.sim.shrink.shrink_schedule`) and persisted as runnable
reproducers (:mod:`repro.sim.reproducer`).  CLI:
``python -m repro.sim --seed N --runs K``.
"""

from .harness import Simulation, SimResult
from .oracles import ORACLES, oracle, run_oracles
from .reproducer import emit_reproducer, load_reproducer, replay_reproducer
from .schedule import EVENT_KINDS, FaultEvent, Schedule, generate
from .shrink import shrink_schedule

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "ORACLES",
    "Schedule",
    "SimResult",
    "Simulation",
    "emit_reproducer",
    "generate",
    "load_reproducer",
    "oracle",
    "replay_reproducer",
    "run_oracles",
    "shrink_schedule",
]
