"""Monte Carlo pi estimation as a CN job (messaging workload)."""

from .driver import build_pi_model, pi_registry, register_pi_tasks, run_parallel_pi
from .tasks import estimate_pi_serial

__all__ = [
    "estimate_pi_serial",
    "build_pi_model",
    "register_pi_tasks",
    "pi_registry",
    "run_parallel_pi",
]
