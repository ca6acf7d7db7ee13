"""``python -m benchmarks.e2e``: put the checkout's ``src`` on the path
(the benchmark measures this tree, not an installed copy) and dispatch."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"benchmarks.e2e: nothing to measure, {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e.cli import main

    sys.exit(main())
