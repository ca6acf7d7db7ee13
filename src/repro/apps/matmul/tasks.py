"""Dense matrix multiplication as a CN job (fourth example workload).

The paper motivates CN with "scientific and other applications that lend
themselves to parallel computing"; dense C = A @ B is the canonical one.
Decomposition mirrors the guiding example's row-wise scheme:

* ``MatSplit`` reads A and B, sends each worker a contiguous row block
  of A together with the whole of B (1-D row decomposition; B is
  broadcast state, like row k in Floyd),
* each ``MatWorker`` computes its block of C = A_block @ B,
* ``MatJoin`` stacks the blocks in row order.

Unlike Floyd there is no iteration-coupled communication, so this
workload isolates the pure scatter/compute/gather cost of the framework
-- the comparison point the channel benchmarks use.
"""

from __future__ import annotations

import numpy as np

from repro.cn.task import Task, TaskContext

from ..floyd.io import MatrixStore
from ..floyd.tasks import partition_rows

__all__ = ["MatSplit", "MatWorker", "MatJoin", "store_pair", "drop_pair", "matmul_serial"]


def matmul_serial(a, b) -> np.ndarray:
    """Baseline: numpy matmul."""
    return np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)


def store_pair(key: str, a, b) -> str:
    """Stage an (A, B) pair in the matrix store; returns the source ref."""
    store = MatrixStore.instance()
    store.put(f"{key}:A", a)
    store.put(f"{key}:B", b)
    return f"store:{key}"


def drop_pair(key: str) -> None:
    """Forget the pair :func:`store_pair` staged under *key*."""
    store = MatrixStore.instance()
    store.pop(f"{key}:A")
    store.pop(f"{key}:B")


def _load_pair(source: str) -> tuple[np.ndarray, np.ndarray]:
    if not source.startswith("store:"):
        raise ValueError(
            f"matmul source must be a store: reference, got {source!r}"
        )
    key = source[len("store:") :]
    store = MatrixStore.instance()
    return (
        np.array(store.get(f"{key}:A"), dtype=float),
        np.array(store.get(f"{key}:B"), dtype=float),
    )


class MatSplit(Task):
    """Scatter A's row blocks (and B wholesale) to the workers."""

    def __init__(self, source: str) -> None:
        self.source = source

    def run(self, ctx: TaskContext) -> dict:
        a, b = _load_pair(self.source)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        workers = sorted(ctx.my_dependents())
        if not workers:
            raise RuntimeError("MatSplit has no dependent workers")
        ranges = partition_rows(a.shape[0], len(workers))
        for worker, (start, end) in zip(workers, ranges):
            ctx.send(worker, ("block", start, a[start:end].copy(), b.copy()))
        return {"rows": int(a.shape[0]), "workers": len(workers)}


class MatWorker(Task):
    """Compute one row block of the product."""

    def __init__(self, index: int = 0) -> None:
        self.index = int(index)

    def run(self, ctx: TaskContext) -> dict:
        message = ctx.recv_matching(
            lambda m: m.is_user() and m.payload[0] == "block", timeout=60.0
        )
        _, start, a_block, b = message.payload
        c_block = a_block @ b if a_block.size else np.zeros((0, b.shape[1]))
        for joiner in ctx.my_dependents():
            ctx.send(joiner, ("result", start, c_block))
        return {"start": int(start), "rows": int(a_block.shape[0])}


class MatJoin(Task):
    """Stack the row blocks into C (the task result)."""

    def __init__(self) -> None:
        pass

    def run(self, ctx: TaskContext) -> list[list[float]]:
        expected = len(ctx.my_dependencies())
        pieces: dict[int, np.ndarray] = {}
        received = 0
        while received < expected:
            message = ctx.recv_matching(
                lambda m: m.is_user() and m.payload[0] == "result", timeout=60.0
            )
            received += 1
            _, start, block = message.payload
            if block.size:
                pieces[start] = block
        ordered = [pieces[s] for s in sorted(pieces)]
        result = np.vstack(ordered) if ordered else np.zeros((0, 0))
        return [list(map(float, row)) for row in result]
