"""The guiding example (paper section 2): parallel Floyd all-pairs
shortest path / transitive closure as a CN job."""

from .driver import (
    ensure_floyd_tasks,
    floyd_registry,
    run_parallel_floyd,
    run_parallel_floyd_dynamic,
)
from .io import store_matrix
from .model import build_fig3_model, build_fig5_model
from .serial import (
    floyd_warshall,
    floyd_warshall_numpy,
    random_adjacency,
    random_weighted_graph,
    transitive_closure,
)

__all__ = [
    "build_fig3_model",
    "build_fig5_model",
    "ensure_floyd_tasks",
    "floyd_registry",
    "run_parallel_floyd",
    "run_parallel_floyd_dynamic",
    "floyd_warshall",
    "floyd_warshall_numpy",
    "transitive_closure",
    "random_weighted_graph",
    "random_adjacency",
    "store_matrix",
]
