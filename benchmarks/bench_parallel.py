"""Scaling benchmark for the parallel Monte-Carlo batch runner.

Times a paper-scale *adaptive* cell grid — the workload the event
executor cannot vectorise and therefore the one that parallel sharding
exists for — serially and across a worker pool, and verifies that every
parallel estimate is identical to its serial counterpart (the
determinism contract of :mod:`repro.sim.parallel`).

Run standalone (not under pytest)::

    python benchmarks/bench_parallel.py                 # full grid
    python benchmarks/bench_parallel.py --workers 4
    python benchmarks/bench_parallel.py --quick         # CI smoke run

``--quick`` shrinks the grid to seconds: it checks the machinery and
the serial/parallel identity, not the speedup (which needs real cores —
on a single-CPU container process sharding cannot beat the serial
pass).  Exit status is non-zero if any parallel estimate diverges from
the serial one.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Tuple

from repro.experiments.config import table_spec
from repro.sim.montecarlo import CellEstimate
from repro.sim.backends import ProcessBackend, default_workers
from repro.sim.parallel import BatchRunner, CellJob


def build_grid(table_id: str, reps: int, rows: int) -> List[CellJob]:
    """An adaptive-scheme cell grid: (row × adaptive scheme) jobs."""
    spec = table_spec(table_id)
    adaptive = [s for s in spec.schemes if s.startswith("A_")]
    return [
        CellJob(
            task=spec.task(u, lam),
            policy_factory=spec.policy_factory(scheme),
            reps=reps,
            seed=2006 + index,
        )
        for index, (u, lam) in enumerate(spec.rows[:rows])
        for scheme in adaptive
    ]


def timed(runner: BatchRunner, jobs: List[CellJob]) -> Tuple[float, List[CellEstimate]]:
    start = time.perf_counter()
    estimates = runner.run_cells(jobs)
    return time.perf_counter() - start, estimates


def identical(a: List[CellEstimate], b: List[CellEstimate]) -> bool:
    """NaN-aware field-for-field identity over whole grids."""
    return len(a) == len(b) and all(
        x.same_values(y) for x, y in zip(a, b)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=0,
        help="pool size for the parallel pass (0 = one per CPU)",
    )
    parser.add_argument(
        "--reps", type=int, default=2000, help="Monte-Carlo reps per cell"
    )
    parser.add_argument(
        "--rows", type=int, default=4, help="table rows in the grid"
    )
    parser.add_argument("--table", default="1a", help="table spec for the grid")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny smoke grid: verify identity, skip speedup claims",
    )
    args = parser.parse_args(argv)

    workers = args.workers or default_workers()
    reps = 60 if args.quick else args.reps
    rows = 2 if args.quick else args.rows
    jobs = build_grid(args.table, reps, rows)

    print(
        f"grid: table {args.table}, {len(jobs)} adaptive cells × {reps} reps "
        f"({os.cpu_count()} CPUs visible)"
    )
    serial_time, serial = timed(BatchRunner(), jobs)
    print(f"serial (workers=1):   {serial_time:8.2f}s")
    with BatchRunner(ProcessBackend(workers)) as pooled:
        parallel_time, parallel = timed(pooled, jobs)
    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    print(f"pooled (workers={workers}):  {parallel_time:8.2f}s   "
          f"speedup ×{speedup:.2f}")

    if not identical(serial, parallel):
        bad = sum(
            1 for a, b in zip(serial, parallel) if not a.same_values(b)
        )
        print(f"FAIL: {bad}/{len(jobs)} parallel estimates diverge from serial")
        return 1
    print("estimates: parallel output identical to serial (bitwise)")

    if not args.quick and workers > 1 and (os.cpu_count() or 1) >= workers:
        # On real hardware the grid is embarrassingly parallel; anything
        # under ~2× on 4 workers signals a sharding regression.
        target = 2.0 if workers >= 4 else 1.2
        if speedup < target:
            print(f"WARN: speedup ×{speedup:.2f} below ×{target} target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
