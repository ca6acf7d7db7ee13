"""Garbage-collector work per op of an end-to-end workload.

Runs one ``python -m benchmarks.e2e`` workload in the benchmark's own
blocks (clusters built with the user defaults, warm-up ops untimed) and
reports, per op, the young (generation 0), generation-1 and full
collections that ran inside the op, how many ops paid for at least one
full collection, the objects the op allocated and the objects it
promoted to the old generation, by type.  Both come from a
``gc.callbacks`` hook.  *Allocated* counts what each collection finds
in generation 0 when it starts: every tracked object allocated since the
last collection and still alive, which is what makes the collector run
(one allocated and freed by reference count in between is not seen).
*Promoted*: when a generation-1 or full collection starts the hook notes
the ids and types of the young objects, and when it stops it counts the
noted ones now in the old generation.  That walk of the old generation
per collection is why this is a counting script: its wall time is not
the op's.

A measurement script, not a product feature.  Run it from the checkout
root, on one core like the benchmark:

    taskset -c 0 python tooling/collector_per_op.py WORKLOAD [SECONDS] [SEED] [TOP]
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e.harness import run_pass  # noqa: E402
from benchmarks.e2e.workloads import GOLDEN_DIR, WORKLOADS  # noqa: E402


class CollectorCounts:
    """A ``gc.callbacks`` hook counting what runs while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.ops = 0
        self.ops_with_full = 0
        #: generation -> collections of it that ran inside an op
        self.collections: Counter = Counter()
        #: type name -> objects found in generation 0 by a collection
        #: inside an op
        self.allocated: Counter = Counter()
        #: type name -> objects promoted to the old generation inside an op
        self.promoted: Counter = Counter()
        self._young: dict[int, type] = {}

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        generation = info["generation"]
        if phase == "start":
            allocated = self.allocated
            for obj in gc.get_objects(0):
                allocated[type(obj).__qualname__] += 1
            if generation >= 1:
                self._young = {
                    id(obj): type(obj) for young in (0, 1) for obj in gc.get_objects(young)
                }
            return
        self.collections[generation] += 1
        young, self._young = self._young, {}
        if young:
            for obj in gc.get_objects(2):
                kind = young.get(id(obj))
                if kind is not None:
                    self.promoted[kind.__qualname__] += 1

    def op(self, workload):
        """*workload*'s op, counted."""

        def counted(session, inputs, index):
            full = self.collections[2]
            self.active = True
            try:
                return workload.op(session, inputs, index)
            finally:
                self.active = False
                self.ops += 1
                self.ops_with_full += self.collections[2] > full

        return counted


def main() -> None:
    name = sys.argv[1]
    seconds = float(sys.argv[2]) if len(sys.argv) > 2 else 15.0
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    top = int(sys.argv[4]) if len(sys.argv) > 4 else 12
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, GOLDEN_DIR)
    counts = CollectorCounts()
    gc.callbacks.append(counts)
    try:
        run_pass(workload, inputs, counts.op(workload), seconds=seconds)
    finally:
        gc.callbacks.remove(counts)
    ops = counts.ops
    print(f"{name}, seed {seed}, {ops} timed ops")
    print(f"  young collections per op   {counts.collections[0] / ops:8.2f}")
    print(f"  gen-1 collections per op   {counts.collections[1] / ops:8.2f}")
    print(
        f"  full collections per op    {counts.collections[2] / ops:8.2f}"
        f"   ({counts.ops_with_full}/{ops} ops paid for one)"
    )
    for label, counter in (("allocated", counts.allocated), ("promoted", counts.promoted)):
        total = sum(counter.values())
        print(f"  {'objects ' + label + ' per op':<27}{total / ops:8.0f}")
        for kind, count in counter.most_common(top):
            print(f"    {kind:<24}{count / ops:8.0f}")


if __name__ == "__main__":
    main()
