"""``python -m repro.sim``: the fuzz / replay entry point.

Fuzzing: ``python -m repro.sim --seed 7 --runs 50`` generates one
schedule per seed (``seed, seed+1, ...``), runs each simulation, and
evaluates every oracle.  On a failure the schedule is delta-debug
shrunk (``--shrink``, on by default) and written as a reproducer JSON
into ``--emit DIR`` so it can be checked into the corpus.  Exit status
is 1 if any run failed.

Replay: ``python -m repro.sim --replay FILE`` re-runs one reproducer
and reports whether its violations still occur.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .harness import Simulation
from .oracles import run_oracles
from .reproducer import emit_reproducer, replay_reproducer
from .schedule import Schedule, generate
from .shrink import shrink_schedule

__all__ = ["main"]


def _violations(
    schedule: Schedule, args: argparse.Namespace, only: Optional[list[str]] = None
) -> dict[str, list[str]]:
    """Run *schedule* in the shape the command line gives; its findings."""
    sim = Simulation(
        schedule.seed,
        schedule,
        n=args.n,
        workers=args.workers,
        nodes=args.nodes,
        max_ticks=args.max_ticks,
    )
    return run_oracles(sim.run(), only=only)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="deterministic simulation fuzzing for the CN runtime",
    )
    parser.add_argument("--seed", type=int, default=0, help="first schedule seed")
    parser.add_argument("--runs", type=int, default=1, help="number of schedules")
    parser.add_argument("--n", type=int, default=8, help="Floyd matrix size")
    parser.add_argument("--workers", type=int, default=3, help="worker task count")
    parser.add_argument("--nodes", type=int, default=4, help="cluster size")
    parser.add_argument(
        "--max-ticks", type=int, default=600, help="virtual-tick horizon per run"
    )
    parser.add_argument(
        "--max-probes", type=int, default=60, help="shrink probe budget per failure"
    )
    parser.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="emit the raw failing schedule without delta-debugging it",
    )
    parser.add_argument(
        "--emit",
        metavar="DIR",
        default="",
        help="write failing reproducers into DIR (default: no files)",
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        default="",
        help="replay one reproducer file instead of fuzzing",
    )
    args = parser.parse_args(argv)

    if args.replay:
        result, violations = replay_reproducer(args.replay, max_ticks=args.max_ticks)
        if violations:
            print(f"{args.replay}: still failing after {result.ticks} ticks")
            for name, lines in violations.items():
                for line in lines:
                    print(f"  [{name}] {line}")
            return 1
        print(f"{args.replay}: green ({result.status}, {result.ticks} ticks)")
        return 0

    failures = 0
    for index in range(args.runs):
        seed = args.seed + index
        schedule = generate(seed, nodes=args.nodes, workers=args.workers)
        violations = _violations(schedule, args)
        if not violations:
            print(f"seed {seed}: ok [{schedule.describe()}]")
            continue
        failures += 1
        print(f"seed {seed}: FAIL [{schedule.describe()}]")
        for name, lines in violations.items():
            for line in lines:
                print(f"  [{name}] {line}")
        final = schedule
        if args.shrink:
            final, probes = shrink_schedule(
                schedule,
                lambda candidate: bool(_violations(candidate, args, list(violations))),
                max_probes=args.max_probes,
            )
            print(
                f"  shrunk to {len(final.events)} event(s) in {probes} probe(s):"
                f" [{final.describe()}]"
            )
        if args.emit:
            path = emit_reproducer(
                args.emit,
                final,
                violations,
                n=args.n,
                workers=args.workers,
                nodes=args.nodes,
                note=f"fuzz failure, seed {seed}",
            )
            print(f"  reproducer: {path}")
    total = args.runs
    print(f"{total - failures}/{total} schedules green")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
