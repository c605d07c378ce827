"""Exact Monte-Carlo estimates, pinned as bytes.

The golden traces draw from ``RandomSource.generator()``; the paper
tables' reps draw from ``RandomSource.substream(i)``.  This module pins
the second path end to end in exact mode: each record's ``key`` plus
its full ``estimate``, written with ``json_dumps_exact``.  All eight
paper tables run at 64 reps and seed 7: tables 1a and 3a live in
``tests/fixtures/exact-estimates.json``, the other six in
``tests/fixtures/exact-estimates-other.json``.  One small study of each
other grid kind (row, fixed_m, rate_factor, utilization,
operating_map; 32 reps, seed 7, two-point grids) lives in
``tests/fixtures/exact-estimates-kinds.json``.  A change to rep
seeding, cell expansion, the optimisers, the executor or the blocked
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

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPS = 64
SEED = 7
#: Reps of the kinds fixture's studies.
KIND_REPS = 32


def _tables(*table_ids):
    return {
        table: StudySpec(kind="table", table=table, reps=REPS, seed=SEED)
        for table in table_ids
    }


#: Fixture file → the studies it pins, by payload key.
PINNED = {
    "exact-estimates.json": _tables("1a", "3a"),
    "exact-estimates-other.json": _tables("1b", "2a", "2b", "3b", "4a", "4b"),
    "exact-estimates-kinds.json": {
        "row": StudySpec(kind="row", table="2b", u=0.95, lam=2e-4,
                         reps=KIND_REPS, seed=SEED),
        "fixed_m": StudySpec(kind="fixed_m", table="1a", ms=(1, 2),
                             reps=KIND_REPS, seed=SEED),
        "rate_factor": StudySpec(kind="rate_factor", table="1a",
                                 factors=(1.0, 2.0), reps=KIND_REPS,
                                 seed=SEED),
        "utilization": StudySpec(kind="utilization", table="3a",
                                 u_grid=(0.6, 0.8), lam=1.6e-3,
                                 reps=KIND_REPS, seed=SEED),
        "operating_map": StudySpec(kind="operating_map", table="1a",
                                   u_grid=(0.6, 0.8),
                                   lam_grid=(1e-4, 1.4e-3),
                                   reps=KIND_REPS, seed=SEED),
    },
}


def render(session: Session, studies) -> str:
    """A fixture's text for ``studies``, computed on ``session``."""
    payload = {}
    for name, spec in studies.items():
        results = Study(spec).run(session)
        payload[name] = [
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
        for name, studies in PINNED.items():
            (FIXTURES / name).write_text(render(session, studies))
            print(f"wrote {FIXTURES / name}")
