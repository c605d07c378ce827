"""Exact Monte-Carlo estimates, pinned as bytes.

The golden traces draw from ``RandomSource.generator()``; the paper
tables' reps draw from ``RandomSource.substream(i)``.  This module pins
the second path end to end for all eight paper tables in exact mode at
64 reps and seed 7: each record's ``key`` plus its full ``estimate``,
written with ``json_dumps_exact``.  Tables 1a and 3a live in
``tests/fixtures/exact-estimates.json``, the other six in
``tests/fixtures/exact-estimates-other.json``.  A change to rep
seeding, the optimisers, the executor or the blocked merge that moves a
single bit fails here, on a serial session and on a 2-worker process
pool alike.

Regenerate only for an intended change of exact-mode numbers::

    PYTHONPATH=src python tests/test_exact_estimates.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import Session, Study, StudySpec
from repro.api.results import json_dumps_exact

FIXTURES = Path(__file__).resolve().parent / "fixtures"
#: Fixture file → the tables it pins.
PINNED = {
    "exact-estimates.json": ("1a", "3a"),
    "exact-estimates-other.json": ("1b", "2a", "2b", "3b", "4a", "4b"),
}
REPS = 64
SEED = 7


def render(session: Session, tables) -> str:
    """A fixture's text for ``tables``, computed on ``session``."""
    payload = {}
    for table in tables:
        spec = StudySpec(kind="table", table=table, reps=REPS, seed=SEED)
        results = Study(spec).run(session)
        payload[table] = [
            {"key": record.key, "estimate": record.to_dict()["estimate"]}
            for record in results
        ]
    return json_dumps_exact(payload, indent=1) + "\n"


@pytest.mark.parametrize("fixture", sorted(PINNED))
@pytest.mark.parametrize(
    "settings",
    [{}, {"backend": "process", "workers": 2}],
    ids=["serial", "process-2"],
)
def test_exact_estimates_match_the_fixture_byte_for_byte(settings, fixture):
    with Session(**settings) as session:
        text = render(session, PINNED[fixture])
    assert text == (FIXTURES / fixture).read_text()


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    with Session() as session:
        for name, tables in PINNED.items():
            (FIXTURES / name).write_text(render(session, tables))
            print(f"wrote {FIXTURES / name}")
