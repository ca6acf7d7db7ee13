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

from .harness import Simulation
from .oracles import run_oracles
from .schedule import Schedule, generate

__all__ = ["Schedule", "Simulation", "generate", "run_oracles"]
