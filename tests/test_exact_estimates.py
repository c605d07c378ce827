"""Exact Monte-Carlo estimates, pinned as bytes.

The golden traces draw from ``RandomSource.generator()``; the paper
tables' reps draw from ``RandomSource.substream(i)``.  This module pins
the second path end to end: tables 1a and 3a in exact mode at 64 reps
and seed 7, each record's ``key`` plus its full ``estimate``, written
with ``json_dumps_exact`` to ``tests/fixtures/exact-estimates.json``.
A change to rep seeding, the optimisers, the executor or the blocked
merge that moves a single bit fails here, on a serial session and on a
2-worker process pool alike.

Regenerate only for an intended change of exact-mode numbers::

    PYTHONPATH=src python tests/test_exact_estimates.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import Session, Study, StudySpec
from repro.api.results import json_dumps_exact

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "exact-estimates.json"
TABLES = ("1a", "3a")
REPS = 64
SEED = 7


def render(session: Session) -> str:
    """The fixture's text, computed on ``session``."""
    payload = {}
    for table in TABLES:
        spec = StudySpec(kind="table", table=table, reps=REPS, seed=SEED)
        results = Study(spec).run(session)
        payload[table] = [
            {"key": record.key, "estimate": record.to_dict()["estimate"]}
            for record in results
        ]
    return json_dumps_exact(payload, indent=1) + "\n"


@pytest.mark.parametrize(
    "settings",
    [{}, {"backend": "process", "workers": 2}],
    ids=["serial", "process-2"],
)
def test_exact_estimates_match_the_fixture_byte_for_byte(settings):
    with Session(**settings) as session:
        assert render(session) == FIXTURE.read_text()


if __name__ == "__main__":
    with Session() as session:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(render(session))
    print(f"wrote {FIXTURE}")
