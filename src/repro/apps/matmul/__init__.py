"""Dense matrix multiplication as a CN job (scatter/compute/gather)."""

from .driver import matmul_registry, run_parallel_matmul
from .tasks import matmul_serial

__all__ = ["matmul_serial", "matmul_registry", "run_parallel_matmul"]
