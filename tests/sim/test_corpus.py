"""Corpus replay: every checked-in reproducer stays green forever.

``tests/data/sim_corpus/`` holds schedules that once exposed (now
fixed) bugs -- e.g. the fate-keying livelock where a re-placed queue
replayed its predecessor's exact drop/hold stream.  Each file is
re-simulated and every oracle re-evaluated, so a regression fails
tier-1 with its minimal schedule attached.
"""

from pathlib import Path

import pytest

from repro.sim.reproducer import replay_reproducer

CORPUS = Path(__file__).resolve().parents[1] / "data" / "sim_corpus"


def corpus_files():
    return sorted(CORPUS.glob("*.json"))


def test_corpus_is_not_empty():
    assert corpus_files(), f"no reproducers under {CORPUS}"


@pytest.mark.parametrize(
    "path", corpus_files(), ids=lambda p: p.stem if hasattr(p, "stem") else str(p)
)
def test_reproducer_stays_green(path):
    result, violations = replay_reproducer(path)
    assert violations == {}, (
        f"{path.name} regressed ({result.status}): {violations}"
    )
