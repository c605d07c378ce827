"""Executor hot-path throughput: reps/s per scheme, path and backend.

PR 4 overhauled the Monte-Carlo executor hot path — batched fault
streams, a fused interval loop, slab accumulation, latency-adaptive
dispatch — while keeping every ``CellEstimate`` bit-identical.  This
benchmark is the performance contract that overhaul created:

* **reps/s per scheme** on the reference executor grid (table 1a's
  hardest row, all four scheme columns as event-executor cells), for

  - the **slab** path (``CellJob.run_block`` → ``accumulate_range``:
    the production path every backend runs), and
  - the **runresult** path (``run_range`` + per-rep
    ``CellAccumulator.add``: the pre-slab accumulation discipline,
    kept in-tree as the comparison baseline);

* **grid reps/s per backend** (serial / 2-process pool / 2-worker
  loopback cluster), with the cross-backend estimates checked for
  bit-identity while the clock runs;

* a **regression gate**: with ``--baseline BENCH_executor.json`` the
  run fails if any scheme's serial slab throughput drops more than 2×
  below the committed baseline *scaled to this machine* (the same-run
  runresult path is the machine yardstick, so CI's shared runners do
  not flake on hardware difference), or below half the same-run
  runresult path.

PR 7 added the **fast kernel** (``repro.sim.kernel``): a vectorised,
block-deterministic peer of the exact engine.  The benchmark now
measures both kernels — per-scheme reps/s and the whole-grid
aggregate — and gates the contract both ways: the exact numbers keep
their baseline gate (the kernel must cost the exact path nothing), and
the fast kernel must clear a grid-throughput floor (full runs) or a
speedup-over-exact floor (``--min-fast-speedup``, the machine-relative
CI form).

Run standalone (not under pytest)::

    python benchmarks/bench_executor.py              # full sizes
    python benchmarks/bench_executor.py --quick      # CI smoke run
    python benchmarks/bench_executor.py --baseline BENCH_executor.json
    python benchmarks/bench_executor.py --fresh-process   # cold starts

Results are written to ``BENCH_executor.json`` (override with
``--json``); the fast-kernel section is additionally written to a
``*_fast.json`` sibling so CI can upload the two kernel variants as
separate artifacts.  ``--fresh-process`` times each scheme once per
*subprocess* — a cold interpreter with empty caches — so per-rep
setup cost (the per-rep ``PCG64`` seeding the fast kernel's batched
spawn removes: ~28 µs a rep through numpy's ``SeedSequence``, ~4–6 µs
through the exact path's block-seeded port) stays visible instead of
being amortised away by warm in-process best-of rounds.  Exit status is
non-zero when the agreement check or any gate fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.experiments.config import table_spec
from repro.sim.backends import DistributedBackend, ProcessBackend, SerialBackend
from repro.sim.distributed import LocalCluster
from repro.sim.montecarlo import CellAccumulator, run_range
from repro.sim.parallel import BatchRunner

TABLE = "1a"
ROW = (0.82, 0.0016)  # the grid's hardest (U, λ) row
SEED = 2006

#: Acceptance floor for the fast kernel's serial whole-grid throughput
#: (full runs only; quick CI runs use the machine-relative speedup gate).
FAST_GRID_FLOOR = 50_000.0


def _grid_jobs(reps: int):
    spec = table_spec(TABLE)
    u, lam = ROW
    return spec.schemes, [
        spec.cell_job(u, lam, scheme, reps=reps, seed=SEED)
        for scheme in spec.schemes
    ]


def _best_rate(callable_, reps: int, rounds: int) -> float:
    best = 0.0
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, reps / elapsed)
    return best


def bench_schemes(reps: int, rounds: int) -> Dict[str, Dict[str, float]]:
    """Serial slab vs runresult reps/s, per scheme column."""
    schemes, jobs = _grid_jobs(reps)
    report: Dict[str, Dict[str, float]] = {}
    for scheme, job in zip(schemes, jobs):
        job.run_block(0, 0, min(reps, 128))  # warm caches and pools

        def slab():
            return job.run_block(0, 0, reps)

        def runresult():
            return CellAccumulator().add_all(
                run_range(
                    job.task,
                    job.policy_factory,
                    start=0,
                    stop=reps,
                    seed=job.seed,
                )
            )

        slab_rate = _best_rate(slab, reps, rounds)
        runresult_rate = _best_rate(runresult, reps, rounds)
        report[scheme] = {
            "slab_reps_per_sec": slab_rate,
            "runresult_reps_per_sec": runresult_rate,
            "slab_over_runresult": (
                slab_rate / runresult_rate if runresult_rate else math.inf
            ),
        }
        print(
            f"{scheme:>8}: slab {slab_rate:>10,.0f} reps/s | "
            f"runresult {runresult_rate:>10,.0f} reps/s "
            f"(x{report[scheme]['slab_over_runresult']:.2f})"
        )
    return report


def bench_kernels(reps: int, rounds: int) -> Dict[str, object]:
    """Fast-kernel reps/s per scheme + whole-grid aggregate, both kernels.

    Warm methodology: every job runs one full block before its timed
    rounds (the fast kernel memoises replan tables per process — a
    one-time cost that would otherwise dominate the first round), then
    best-of-``rounds``.  The cold half of the story is
    ``--fresh-process``.
    """
    schemes, jobs = _grid_jobs(reps)
    fast_jobs = [dataclasses.replace(job, kernel="fast") for job in jobs]
    per_scheme: Dict[str, Dict[str, float]] = {}
    for scheme, job in zip(schemes, fast_jobs):
        job.run_block(0, 0, reps)  # warm: replan tables, caches
        rate = _best_rate(lambda: job.run_block(0, 0, reps), reps, rounds)
        per_scheme[scheme] = {"fast_reps_per_sec": rate}
        print(f"{scheme:>8}: fast {rate:>10,.0f} reps/s")

    def run_grid(grid_jobs):
        for job in grid_jobs:
            job.run_block(0, 0, reps)

    total = reps * len(jobs)
    run_grid(jobs)  # warm the exact path too (standalone invocations)
    exact_grid = _best_rate(lambda: run_grid(jobs), total, rounds)
    fast_grid = _best_rate(lambda: run_grid(fast_jobs), total, rounds)
    speedup = fast_grid / exact_grid if exact_grid else math.inf
    print(
        f"    grid: exact {exact_grid:>10,.0f} reps/s | "
        f"fast {fast_grid:>10,.0f} reps/s (x{speedup:.1f})"
    )
    return {
        "schemes": per_scheme,
        "grid_reps_per_sec": fast_grid,
        "exact_grid_reps_per_sec": exact_grid,
        "speedup_over_exact": speedup,
    }


def _fresh_process_rate(scheme: str, reps: int, kernel: str) -> float:
    """Time one block in a cold subprocess (caches empty, nothing warm).

    This is the number a user's first block actually sees: per-rep
    ``SeedSequence`` construction on the exact path, table building on
    the fast path — costs the warm in-process rounds amortise away.
    """
    u, lam = ROW
    code = (
        f"import sys, time, dataclasses\n"
        f"sys.path[:0] = {sys.path!r}\n"
        f"from repro.experiments.config import table_spec\n"
        f"job = table_spec({TABLE!r}).cell_job({u!r}, {lam!r}, {scheme!r}, "
        f"reps={reps!r}, seed={SEED!r})\n"
        f"job = dataclasses.replace(job, kernel={kernel!r})\n"
        f"started = time.perf_counter()\n"
        f"job.run_block(0, 0, {reps!r})\n"
        f"print({reps!r} / (time.perf_counter() - started))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"fresh-process measurement failed for {scheme}/{kernel}:\n"
            f"{out.stderr}"
        )
    return float(out.stdout.strip())


def bench_fresh_process(reps: int) -> Dict[str, Dict[str, float]]:
    """Cold-start reps/s per scheme and kernel, one subprocess each."""
    schemes, _jobs = _grid_jobs(reps)
    report: Dict[str, Dict[str, float]] = {}
    for scheme in schemes:
        exact = _fresh_process_rate(scheme, reps, "exact")
        fast = _fresh_process_rate(scheme, reps, "fast")
        report[scheme] = {
            "exact_reps_per_sec": exact,
            "fast_reps_per_sec": fast,
        }
        print(
            f"{scheme:>8} (cold): exact {exact:>10,.0f} reps/s | "
            f"fast {fast:>10,.0f} reps/s"
        )
    return report


def bench_backends(
    reps: int, include_distributed: bool
) -> Dict[str, Dict[str, float]]:
    """Whole-grid reps/s per backend + cross-backend bit-identity."""
    report: Dict[str, Dict[str, float]] = {}
    reference = None
    backends = [("serial", lambda: SerialBackend()),
                ("process", lambda: ProcessBackend(2))]
    if include_distributed:
        backends.append(
            ("distributed", lambda: DistributedBackend(cluster=LocalCluster(2)))
        )
    for name, build in backends:
        _, jobs = _grid_jobs(reps)
        backend = build()
        runner = BatchRunner(backend=backend)
        try:
            runner.run_cells(_grid_jobs(min(reps, 128))[1])  # warm up
            started = time.perf_counter()
            estimates = runner.run_cells(jobs)
            elapsed = time.perf_counter() - started
        finally:
            backend.close()
        total = reps * len(jobs)
        agrees = True
        if reference is None:
            reference = estimates
        else:
            agrees = all(
                ours.same_values(ref) for ours, ref in zip(estimates, reference)
            )
        report[name] = {
            "grid_reps_per_sec": total / elapsed if elapsed else math.inf,
            "agrees_with_serial": agrees,
        }
        print(
            f"backend {name:>11}: {report[name]['grid_reps_per_sec']:>10,.0f} "
            f"reps/s (grid) agree={agrees}"
        )
    return report


def check(
    report: Dict,
    baseline: Optional[Dict],
    *,
    min_fast_speedup: Optional[float] = None,
    fast_grid_floor: Optional[float] = None,
) -> List[str]:
    """Guarded properties; returns human-readable failures.

    The baseline gate is **machine-relative**: the committed numbers
    come from a different machine than CI's shared runners, so raw
    reps/s comparisons would flake on hardware difference alone.  The
    per-rep ``runresult`` path measured in the *same run* serves as the
    machine yardstick — its baseline ratio estimates how fast this
    machine is, and the slab path must stay within 2× of the
    correspondingly scaled baseline.  A structural same-run invariant
    (slab ≥ half of runresult) backstops the case where both paths
    regress together.
    """
    failures: List[str] = []
    fast = report.get("fast")
    if fast is not None:
        speedup = fast["speedup_over_exact"]
        if min_fast_speedup is not None and speedup < min_fast_speedup:
            failures.append(
                f"fast kernel grid speedup over exact is x{speedup:.2f}, "
                f"below the x{min_fast_speedup:g} gate"
            )
        if (
            fast_grid_floor is not None
            and fast["grid_reps_per_sec"] < fast_grid_floor
        ):
            failures.append(
                f"fast kernel grid throughput "
                f"{fast['grid_reps_per_sec']:,.0f} reps/s is below the "
                f"{fast_grid_floor:,.0f} reps/s acceptance floor"
            )
    for name, entry in report["backends"].items():
        if not entry["agrees_with_serial"]:
            failures.append(
                f"backend {name} produced estimates that differ from serial"
            )
    for scheme, entry in report["schemes"].items():
        if entry["slab_reps_per_sec"] < entry["runresult_reps_per_sec"] / 2.0:
            failures.append(
                f"{scheme}: slab path ({entry['slab_reps_per_sec']:,.0f} "
                f"reps/s) fell below half the per-rep RunResult path "
                f"({entry['runresult_reps_per_sec']:,.0f} reps/s) in the "
                f"same run"
            )
    if baseline:
        factors = [
            report["schemes"][s]["runresult_reps_per_sec"]
            / baseline["schemes"][s]["runresult_reps_per_sec"]
            for s in report["schemes"]
            if s in baseline.get("schemes", {})
            and baseline["schemes"][s].get("runresult_reps_per_sec")
        ]
        machine = sorted(factors)[len(factors) // 2] if factors else 1.0
        report["machine_factor_vs_baseline"] = machine
        for scheme, entry in report["schemes"].items():
            reference = baseline.get("schemes", {}).get(scheme)
            if not reference:
                continue
            floor = reference["slab_reps_per_sec"] * machine / 2.0
            if entry["slab_reps_per_sec"] < floor:
                failures.append(
                    f"{scheme}: {entry['slab_reps_per_sec']:,.0f} reps/s is "
                    f">2x below the committed baseline scaled to this "
                    f"machine ({reference['slab_reps_per_sec']:,.0f} reps/s "
                    f"x {machine:.2f})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small rep counts and no cluster: the CI smoke run",
    )
    parser.add_argument(
        "--json", default="BENCH_executor.json",
        help="where to write the machine-readable report",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=(
            "committed BENCH_executor.json to gate against: fail when a "
            "scheme's serial slab reps/s regresses more than 2x"
        ),
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds per measurement (best-of; default 3, quick 2)",
    )
    parser.add_argument(
        "--min-fast-speedup", type=float, default=None, metavar="X",
        help=(
            "fail unless the fast kernel's grid throughput is at least "
            "X times the exact kernel's in the same run (machine-"
            "relative; the gate CI uses in quick mode)"
        ),
    )
    parser.add_argument(
        "--fresh-process", action="store_true",
        help=(
            "also time each scheme once per cold subprocess, so per-rep "
            "setup cost (seed construction, table building) is visible "
            "instead of amortised by warm rounds"
        ),
    )
    args = parser.parse_args(argv)

    reps = 256 if args.quick else 1024
    # The fast kernel amortises per-block setup over the block; quick
    # mode still needs blocks big enough to measure steady state.
    fast_reps = 2048 if args.quick else 4096
    rounds = args.rounds or (2 if args.quick else 3)

    print(f"reference grid: table {TABLE} row {ROW}, {reps} reps per cell")
    report: Dict = {
        "table": TABLE,
        "row": list(ROW),
        "reps": reps,
        "fast_reps": fast_reps,
        "schemes": bench_schemes(reps, rounds),
        "fast": bench_kernels(fast_reps, rounds),
        "backends": bench_backends(reps, include_distributed=not args.quick),
    }
    if args.fresh_process:
        report["fresh_process"] = bench_fresh_process(reps)

    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            print(f"note: no baseline at {args.baseline}; gate skipped")
    failures = check(
        report,
        baseline,
        min_fast_speedup=args.min_fast_speedup,
        # The absolute floor is an acceptance number for full runs on a
        # development machine; quick CI runs gate on relative speedup.
        fast_grid_floor=None if args.quick else FAST_GRID_FLOOR,
    )
    report["failures"] = failures

    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    fast_json = (
        args.json[:-5] if args.json.endswith(".json") else args.json
    ) + "_fast.json"
    with open(fast_json, "w") as handle:
        json.dump(
            {
                "table": TABLE,
                "row": list(ROW),
                "reps": fast_reps,
                "kernel": "fast",
                "fast": report["fast"],
            },
            handle,
            indent=2,
            sort_keys=True,
        )
    print(f"report: {args.json} (+ {fast_json})")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("ok: backends agree bit-for-bit"
          + ("; baseline gate passed" if baseline else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
