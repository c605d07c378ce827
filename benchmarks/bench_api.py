"""Façade overhead gate: Study.run vs the session's bare cell batch.

The declarative façade (``repro.api``) wraps every experiment in cell
planning, cell identities, provenance stamping and ResultSet assembly.
All of that is O(cells) Python bookkeeping around the same Monte-Carlo
work, so it must be invisible at experiment scale.  This benchmark is
the contract:

* run the same table once directly — its ``table_cells`` plans
  dispatched as one ``Session.run_cells`` batch, nothing else — and
  once through ``Study.run`` (façade), both on one serial
  ``Session(chunk_size=...)``, timing both (interleaved, best of
  ``--repeats`` passes);
* **assert bit-identity**: every façade cell estimate must equal the
  direct batch's, in plan order (``CellEstimate.same_values``);
* **gate the overhead**: the façade's reps/s must be within
  ``--max-overhead`` (default 5%) of the direct path's.  The gate has
  an absolute noise floor (``--min-gap``, default 50 ms): a run only
  fails when the façade is slower by more than 5% *and* by more than
  the floor, so scheduler jitter on a sub-second quick pass cannot
  flake CI while a genuine O(work) regression still trips it.

Run standalone (not under pytest)::

    python benchmarks/bench_api.py              # full sizes
    python benchmarks/bench_api.py --quick      # CI smoke run

Results are written to ``BENCH_api.json`` (override with ``--json``).
Exit status is non-zero when identity or the overhead gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import Session, Study, StudySpec
from repro.api.plans import table_cells
from repro.experiments.config import table_spec

TABLE = "1a"
SEED = 2006


def run_bench(reps: int, repeats: int, chunk_size: int) -> dict:
    spec = StudySpec(
        kind="table", table=TABLE, reps=reps, seed=SEED, fast_static=True
    )

    # The two paths are timed *interleaved* (direct, façade, direct,
    # façade, ...; best pass kept for each): machine-load drift across
    # the run then biases both sides equally instead of landing on
    # whichever path happened to be measured second.  Both expand the
    # cell plans inside the timed region, and a fresh Study per façade
    # pass keeps its cell-plan cache from eliding that work.
    direct_seconds = facade_seconds = float("inf")
    direct = results = None
    with Session(chunk_size=chunk_size) as session:
        for _ in range(repeats):
            started = time.perf_counter()
            plans = table_cells(
                table_spec(TABLE), reps=reps, seed=SEED, fast_static=True
            )
            direct = session.run_cells([plan.job for plan in plans])
            direct_seconds = min(direct_seconds, time.perf_counter() - started)
            started = time.perf_counter()
            results = Study(spec).run(session)
            facade_seconds = min(facade_seconds, time.perf_counter() - started)

    identical = len(results) == len(direct) and all(
        record.estimate.same_values(estimate)
        for record, estimate in zip(results, direct)
    )
    total_reps = reps * len(direct)
    return {
        "table": TABLE,
        "reps_per_cell": reps,
        "cells": len(direct),
        "direct_seconds": direct_seconds,
        "facade_seconds": facade_seconds,
        "direct_reps_per_s": total_reps / direct_seconds,
        "facade_reps_per_s": total_reps / facade_seconds,
        "overhead": facade_seconds / direct_seconds - 1.0,
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes (seconds, not minutes)",
    )
    parser.add_argument("--reps", type=int, default=None,
                        help="override reps per cell")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing passes per path (best is kept)")
    parser.add_argument("--chunk-size", type=int, default=64)
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="maximum tolerated façade overhead (fraction of direct time)",
    )
    parser.add_argument(
        "--min-gap", type=float, default=0.05,
        help=(
            "absolute noise floor in seconds: the overhead gate only "
            "fails when the façade is slower by more than this too"
        ),
    )
    parser.add_argument("--json", default="BENCH_api.json",
                        help="report path")
    args = parser.parse_args(argv)

    reps = args.reps if args.reps is not None else (96 if args.quick else 1000)
    report = run_bench(reps, args.repeats, args.chunk_size)
    report["max_overhead"] = args.max_overhead
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    print(
        f"direct:  {report['direct_reps_per_s']:12.0f} reps/s "
        f"({report['direct_seconds']:.3f} s)"
    )
    print(
        f"facade:  {report['facade_reps_per_s']:12.0f} reps/s "
        f"({report['facade_seconds']:.3f} s)"
    )
    print(f"overhead: {report['overhead']:+.2%} (gate {args.max_overhead:.0%})")

    ok = True
    if not report["identical"]:
        print("FAIL: façade estimates are not bit-identical to the direct "
              "batch", file=sys.stderr)
        ok = False
    gap = report["facade_seconds"] - report["direct_seconds"]
    if report["overhead"] > args.max_overhead and gap > args.min_gap:
        print(
            f"FAIL: façade overhead {report['overhead']:+.2%} "
            f"({gap * 1000:.0f} ms) exceeds {args.max_overhead:.0%} "
            f"and the {args.min_gap * 1000:.0f} ms noise floor",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print("façade overhead gate ok (bit-identical estimates)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
