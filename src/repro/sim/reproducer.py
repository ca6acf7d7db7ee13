"""Reproducer files: failing schedules that become regression tests.

When a fuzz run fails, the (shrunk) schedule -- its cluster included --
plus the sim's shape parameters are written as a small JSON file.  Checked into
``tests/data/sim_corpus/`` it replays forever under tier-1: the corpus
test loads every file, re-runs the simulation, and re-evaluates the
oracles -- so a fixed bug stays fixed and a still-broken one fails with
its minimal schedule attached.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional

from .harness import SimResult, Simulation
from .oracles import run_oracles
from .schedule import Schedule

__all__ = ["emit_reproducer", "load_reproducer", "replay_reproducer"]

FORMAT_VERSION = 2


def emit_reproducer(
    directory: str | Path,
    schedule: Schedule,
    violations: dict[str, list[str]],
    *,
    n: int = 8,
    workers: int = 3,
    nodes: int = 4,
    note: str = "",
) -> Path:
    """Write a runnable reproducer JSON; returns its path.

    The filename is deterministic in the schedule content (cluster,
    rates and events), so re-fuzzing the same failure overwrites rather
    than accumulates.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "seed": schedule.seed,
        "n": n,
        "workers": workers,
        "nodes": nodes,
        "schedule": schedule.to_dict(),
        "violations": {name: list(lines) for name, lines in violations.items()},
        "note": note,
    }
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(
        json.dumps(payload["schedule"], sort_keys=True).encode()
    ).hexdigest()[:8]
    path = directory / f"seed{schedule.seed}-{digest}.json"
    path.write_text(body)
    return path


def load_reproducer(path: str | Path) -> dict[str, Any]:
    """Parse and validate a reproducer file."""
    data = json.loads(Path(path).read_text())
    version = int(data.get("version", 0))
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported reproducer version {version}"
            f" (expected {FORMAT_VERSION})"
        )
    data["schedule"] = Schedule.from_dict(data["schedule"])
    return data


def replay_reproducer(
    path: str | Path,
    *,
    max_ticks: Optional[int] = None,
) -> tuple[SimResult, dict[str, list[str]]]:
    """Re-run a reproducer; returns ``(result, current violations)``.

    An empty violations dict means the bug the file captured is fixed
    (which is what the corpus regression test asserts).
    """
    data = load_reproducer(path)
    schedule: Schedule = data["schedule"]
    sim = Simulation(
        schedule.seed,
        schedule,
        n=int(data.get("n", 8)),
        workers=int(data.get("workers", 3)),
        nodes=int(data.get("nodes", 4)),
        **({"max_ticks": max_ticks} if max_ticks else {}),
    )
    result = sim.run()
    return result, run_oracles(result)
