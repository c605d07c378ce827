"""Command-line interface: regenerate tables, validate shapes, demo runs.

Usage (installed as ``repro`` or via ``python -m repro``)::

    repro table 1a --reps 2000          # regenerate paper table 1(a)
    repro run spec.json --out r.json    # run a declarative StudySpec
    repro validate --reps 500           # all 8 tables + shape criteria
    repro demo --scheme A_D_S           # trace one simulated run
    repro record-golden                 # re-record reference traces,
                                        # print an event-level diff
    repro replay tests/goldens          # drift-check every trace under
                                        # it (first diverging event,
                                        # exit 1)
    repro list                          # available tables
    repro worker tcp://host:8642        # serve blocks for a coordinator
    repro serve --cache ~/.repro-cells  # study service daemon (HTTP)
    repro submit spec.json --url ...    # run a spec on a daemon

Every Monte-Carlo command runs through the :mod:`repro.api` façade:
it describes each study as a :class:`~repro.api.spec.StudySpec`, runs
it in one :class:`~repro.api.session.Session`, and (with ``--out``) saves
the provenance-stamped :class:`~repro.api.results.ResultSet`;
``--resume`` reloads a partial ResultSet and computes only the missing
cells.  ``repro run`` takes the spec as a JSON file directly.

Where the cells run is one validated selector (``--backend {serial,
process,distributed}``; see :class:`repro.experiments.config.
ExecutionSettings`): ``--workers N`` sizes the process pool (and,
alone, still implies ``--backend process`` for compatibility),
``--cluster-workers N`` spawns loopback worker subprocesses for the
distributed backend.  Results are bit-identical across backends for a
fixed ``--chunk-size``.

Building the parser loads no numpy: each handler imports what it uses,
so ``list``, ``submit``, ``cache`` and every ``--help`` start fast.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.choices import BACKEND_NAMES, KERNEL_NAMES, KIND_SUMMARIES, STUDY_KINDS
from repro.errors import ReproError
from repro.experiments.paper_data import COLUMNS, TABLE_IDS, TABLE_TITLES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Energy-aware adaptive checkpointing for DMR real-time systems "
            "(reproduction of Li, Chen & Yu, DATE 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate one paper table")
    p_table.add_argument("table_id", choices=list(TABLE_IDS))
    p_table.add_argument("--reps", type=int, default=2000)
    p_table.add_argument("--seed", type=int, default=2006)
    _add_workers_flag(p_table)
    p_table.add_argument(
        "--fast-static",
        action="store_true",
        help=(
            "compute the static scheme columns in closed form: exact "
            "mode's expectation on every field, zero-width intervals, "
            "a cost that does not grow with --reps"
        ),
    )
    p_table.add_argument("--json", action="store_true", help="emit JSON")
    p_table.add_argument(
        "--markdown", action="store_true", help="emit a markdown table"
    )
    p_table.add_argument(
        "--no-paper", action="store_true", help="hide published values"
    )
    _add_resultset_flags(p_table)

    p_run = sub.add_parser(
        "run",
        help="run a declarative study spec (JSON) through the façade",
        # Derived from STUDY_KINDS so the help text cannot drift when a
        # kind is added (pinned by tests/test_workloads.py).
        epilog=f"study kinds: {', '.join(STUDY_KINDS)}",
    )
    p_run.add_argument(
        "spec",
        nargs="?",
        default=None,
        help=(
            "path to a StudySpec JSON file, e.g. "
            "examples/table_a.spec.json (kinds: "
            f"{', '.join(STUDY_KINDS)})"
        ),
    )
    p_run.add_argument(
        "--list-kinds",
        action="store_true",
        help="list the available study kinds with a one-line summary",
    )
    _add_workers_flag(p_run)
    _add_resultset_flags(p_run)
    p_run.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also export the result set as CSV",
    )
    p_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered study output (summary line only)",
    )

    p_val = sub.add_parser(
        "validate", help="run every table and check the reproduction shape"
    )
    p_val.add_argument("--reps", type=int, default=400)
    p_val.add_argument("--seed", type=int, default=2006)
    _add_workers_flag(p_val)

    p_demo = sub.add_parser("demo", help="trace one simulated run")
    p_demo.add_argument(
        "--scheme",
        default="A_D_S",
        choices=list(dict.fromkeys(COLUMNS["scp"] + COLUMNS["ccp"])),
    )
    p_demo.add_argument("--utilization", type=float, default=0.8)
    p_demo.add_argument("--lam", type=float, default=1.4e-3)
    p_demo.add_argument("--k", type=int, default=5)
    p_demo.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser(
        "sweep", help="run a sensitivity sweep / ablation study"
    )
    p_sweep.add_argument(
        "study",
        choices=["operating-map", "fixed-m", "cost-ratio", "benefit"],
    )
    p_sweep.add_argument("--reps", type=int, default=300)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--table", default="1a", choices=list(TABLE_IDS))
    _add_workers_flag(p_sweep)
    _add_resultset_flags(p_sweep)

    p_record = sub.add_parser(
        "record-golden",
        help=(
            "re-record the curated golden traces (executor matrix and "
            "taskset trace) and print a per-file, event-level diff of "
            "what changed (review it before committing; see README "
            "'Regeneration policy')"
        ),
    )
    p_record.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help=(
            "golden directory to re-record in place (default: the "
            "checkout's tests/goldens/); a golden it does not hold yet "
            "is recorded as new"
        ),
    )
    p_record.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        default=None,
        metavar="NAME",
        help=(
            "re-record only this curated golden (repeatable; default: "
            "all of them)"
        ),
    )
    p_record.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the curated golden names and exit",
    )

    p_replay = sub.add_parser(
        "replay",
        help=(
            "replay golden traces against the current tree; report the "
            "first diverging event (never writes a golden; re-record "
            "with record-golden)"
        ),
    )
    p_replay.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help=(
            "golden trace files of either kind (executor or taskset), "
            "or directories searched recursively for *.jsonl goldens"
        ),
    )
    p_replay.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the full drift report to this file",
    )

    p_worker = sub.add_parser(
        "worker",
        help="serve Monte-Carlo blocks for a distributed coordinator",
    )
    p_worker.add_argument(
        "url",
        help="coordinator address, e.g. tcp://192.168.1.10:8642",
    )
    p_worker.add_argument(
        "--idle-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "exit after this long without hearing from the coordinator "
            "(default 120; a live coordinator pings well inside it)"
        ),
    )
    p_worker.add_argument(
        "--max-tasks",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "drop the connection after completing N blocks (fault-"
            "injection hook for the test suite; not for production)"
        ),
    )
    p_worker.add_argument(
        "--delay",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "sleep this long before each block (slow-loris fault-"
            "injection hook for the test suite; not for production)"
        ),
    )
    p_worker.add_argument(
        "--tls-ca",
        default=None,
        metavar="PEM",
        help=(
            "connect with TLS, verifying the coordinator against this "
            "CA (or against the coordinator's own certificate for "
            "self-signed clusters)"
        ),
    )
    p_worker.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help=(
            "client certificate to present to coordinators that demand "
            "mutual TLS (requires --tls-key)"
        ),
    )
    p_worker.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key for --tls-cert",
    )

    p_serve = sub.add_parser(
        "serve",
        help=(
            "run the study service daemon: accept StudySpec submissions "
            "over HTTP, memoise cells in a content-addressed cache"
        ),
    )
    p_serve.add_argument(
        "--cache",
        required=True,
        metavar="DIR",
        help=(
            "directory for the content-addressed cell cache (created if "
            "missing); overlapping studies share its entries"
        ),
    )
    p_serve.add_argument(
        "--serve-url",
        default=None,
        metavar="URL",
        help=(
            "bind address, e.g. http://127.0.0.1:8750 (the default); "
            "port 0 picks a free port and prints it"
        ),
    )
    p_serve.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )
    p_serve.add_argument(
        "--max-pending",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help=(
            "admission bound: reject submissions with 503 + Retry-After "
            "once this many are in flight (default 32; 0 = unbounded)"
        ),
    )
    p_serve.add_argument(
        "--fair-cells",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help=(
            "cells per compute turn: concurrent submissions round-robin "
            "at this granularity instead of queueing whole studies "
            "(default 8; 0 = one monolithic batch per submission)"
        ),
    )
    p_serve.add_argument(
        "--request-timeout",
        type=_nonneg_float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-connection socket timeout so stalled clients cannot pin "
            "handler threads (default 60; 0 = never time out)"
        ),
    )
    _add_workers_flag(p_serve)

    p_submit = sub.add_parser(
        "submit",
        help="run a StudySpec JSON file on a running study service",
    )
    p_submit.add_argument(
        "spec",
        help="path to a StudySpec JSON file (same format as 'repro run')",
    )
    p_submit.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="service address (default http://127.0.0.1:8750)",
    )
    p_submit.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help=(
            "save the returned ResultSet as JSON — byte-compatible with "
            "a local 'repro run --out' of the same study"
        ),
    )
    p_submit.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also export the returned result set as CSV",
    )
    p_submit.add_argument(
        "--stream",
        action="store_true",
        help="stream per-cell progress lines as the service resolves them",
    )
    p_submit.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="give up if the service has not answered within this long",
    )
    p_submit.add_argument(
        "--retries",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help=(
            "retry transient failures (connection refused, 503) this "
            "many times with jittered backoff (default 3; 0 = fail fast)"
        ),
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or prune a study service's cell cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_prune = cache_sub.add_parser(
        "prune",
        help="evict cold cache entries (oldest mtime first)",
    )
    p_prune.add_argument(
        "--cache",
        required=True,
        metavar="DIR",
        help="cell cache directory (same flag as 'repro serve')",
    )
    p_prune.add_argument(
        "--max-bytes",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help="shrink the store to at most this many bytes",
    )
    p_prune.add_argument(
        "--max-age",
        type=_nonneg_float,
        default=None,
        metavar="DAYS",
        help="drop entries not written/touched within this many days",
    )
    p_prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    p_stats = cache_sub.add_parser(
        "stats",
        help="print entry count and location of a cell cache",
    )
    p_stats.add_argument(
        "--cache",
        required=True,
        metavar="DIR",
        help="cell cache directory",
    )

    sub.add_parser("list", help="list the available tables")
    return parser


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (used by ``--chunk-size``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (used by ``--idle-timeout``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite value > 0, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0, where 0 disables the knob."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    """argparse type: a finite float >= 0, where 0 disables the knob."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite value >= 0, got {value}"
        )
    return value


def _add_resultset_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ResultSet persistence flags (table / run / sweep)."""
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help=(
            "save the provenance-stamped ResultSet as JSON (exact "
            "round-trip; reload with --resume or ResultSet.load)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume from a partial ResultSet: cells it already holds "
            "are reused verbatim, only missing cells are computed.  A "
            "missing file starts fresh (so the same command line works "
            "for the first run and every retry)."
        ),
    )


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    """The shared execution flags (table / validate / sweep)."""
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help=(
            "where Monte-Carlo cells run (default: serial, or a process "
            "pool when --workers > 1).  'distributed' dispatches blocks "
            "to socket workers — spawn loopback ones with "
            "--cluster-workers, or start them elsewhere with "
            "'repro worker'.  Results are bit-identical across backends "
            "for a fixed --chunk-size."
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the process backend (unset/1 = "
            "serial unless --backend process is given; 0 = one per "
            "CPU).  Results are identical for any value."
        ),
    )
    parser.add_argument(
        "--cluster-workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "with --backend distributed: spawn N loopback worker "
            "subprocesses for this run (0 = expect external workers)"
        ),
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="TCP_URL",
        help=(
            "with --backend distributed: coordinator bind address "
            "(e.g. tcp://0.0.0.0:8642) for externally started "
            "'repro worker' processes; default loopback"
        ),
    )
    parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="REPS",
        help=(
            "reps per block — the unit of scheduling AND of the blocked "
            "statistics reduction (default 256).  For a fixed value, "
            "results are bit-identical across any --workers/--backend; "
            "record it with the seed when reproducibility matters."
        ),
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help=(
            "executor kernel: 'exact' (default) is the per-rep engine, "
            "bit-identical run to run; 'fast' runs the adaptive schemes "
            "on the vectorised block-deterministic engine — "
            "statistically equivalent, 1.4–3.1× faster at the default "
            "--chunk-size, reproducible for a fixed seed and "
            "--chunk-size but not bit-comparable to exact results "
            "(static schemes run exact)"
        ),
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help=(
            "with --backend distributed: serve TLS on the coordinator "
            "socket with this certificate (requires --tls-key; workers "
            "verify it via their --tls-ca)"
        ),
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key for --tls-cert",
    )
    parser.add_argument(
        "--tls-ca",
        default=None,
        metavar="PEM",
        help=(
            "with --tls-cert: also require workers to present client "
            "certificates signed by this CA (mutual TLS).  Spawned "
            "--cluster-workers inherit the right flags automatically."
        ),
    )
    parser.add_argument(
        "--connect-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --backend distributed: how long to wait for workers "
            "to join before starting (default 10; raise on slow hosts)"
        ),
    )
    parser.add_argument(
        "--straggler-factor",
        type=_nonneg_float,
        default=None,
        metavar="X",
        help=(
            "with --backend distributed: speculatively re-dispatch a "
            "task in flight longer than X times its kind's expected "
            "block time (default 4; 0 disables speculation).  Duplicate "
            "results deduplicate, so output is bit-identical either way."
        ),
    )


def _load_resume(path: Optional[str]):
    """The partial ResultSet behind ``--resume`` (None = fresh run).

    A missing file is a fresh start, not an error, so the same command
    line works for the first run and every retry after a crash.
    """
    if path is None:
        return None
    import os

    from repro.api import ResultSet

    if not os.path.exists(path):
        print(
            f"repro: note: resume file {path!r} not found; starting fresh",
            file=sys.stderr,
        )
        return None
    return ResultSet.load(path)


def _run_study(args: argparse.Namespace, study):
    """Run a study on one Session built from the execution flags.

    Handles ``--resume`` (reuse cells, compute only missing) and
    ``--out`` (save the completed ResultSet); returns the completed
    set plus how many cells were reused.
    """
    import os

    from repro.api import Session
    from repro.errors import ConfigurationError
    from repro.experiments.config import ExecutionSettings

    out = getattr(args, "out", None)
    if out:
        # Fail before computing, not after: an unwritable --out would
        # otherwise discard a whole study's worth of work.
        directory = os.path.dirname(os.path.abspath(out)) or "."
        if not os.path.isdir(directory):
            raise ConfigurationError(
                f"--out directory does not exist: {directory!r}"
            )
    resume = _load_resume(getattr(args, "resume", None))
    with Session(ExecutionSettings.from_cli_args(args)) as session:
        results = study.run(session, resume=resume)
    if out:
        results.save(out)
    return results, (len(resume) if resume is not None else 0)


def _table_result_from(study, results):
    """A rendered-table view of a table-kind study's ResultSet."""
    from repro.experiments.tables import assemble_table_result

    return assemble_table_result(
        study.spec.resolve_table(),
        reps=study.spec.reps,
        seed=study.spec.seed,
        estimates=[record.estimate for record in results],
    )


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.api import Study, StudySpec
    from repro.experiments.report import format_table, markdown_table

    study = Study(
        StudySpec(
            kind="table",
            table=args.table_id,
            reps=args.reps,
            seed=args.seed,
            fast_static=args.fast_static,
        )
    )
    results, _reused = _run_study(args, study)
    result = _table_result_from(study, results)
    if args.json:
        payload = {
            "table": args.table_id,
            "reps": args.reps,
            "seed": args.seed,
            "rows": [
                {
                    "u": row.u,
                    "lam": row.lam,
                    "cells": {
                        scheme: {
                            "p": row.cell(scheme).p,
                            "e": None
                            if math.isnan(row.cell(scheme).e)
                            else row.cell(scheme).e,
                            "paper_p": getattr(row.cell(scheme).paper, "p", None),
                            "paper_e": _none_if_nan(
                                getattr(row.cell(scheme).paper, "e", None)
                            ),
                        }
                        for scheme in result.schemes
                    },
                }
                for row in result.rows
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.markdown:
        print(markdown_table(result))
    else:
        print(format_table(result, show_paper=not args.no_paper))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.api import Session, Study, StudySpec
    from repro.experiments.config import ExecutionSettings
    from repro.experiments.report import shape_checks

    failures: List[str] = []
    with Session(ExecutionSettings.from_cli_args(args)) as session:
        for table_id in TABLE_IDS:
            study = Study(
                StudySpec(
                    kind="table", table=table_id, reps=args.reps, seed=args.seed
                )
            )
            checks = shape_checks(_table_result_from(study, study.run(session)))
            bad = [c for c in checks if not c.passed]
            status = "ok" if not bad else f"{len(bad)} FAILED"
            print(f"table {table_id}: {len(checks)} checks, {status}")
            for check in bad:
                print(f"  {check}")
                failures.append(f"{table_id}: {check.name}")
    if failures:
        print(f"\n{len(failures)} shape criteria failed")
        return 1
    print("\nall shape criteria passed")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.checkpoints import CostModel
    from repro.core.schemes import scheme_factory
    from repro.sim.energy import EnergyModel
    from repro.sim.executor import simulate_run
    from repro.sim.faults import PoissonFaults
    from repro.sim.rng import RandomSource
    from repro.sim.task import TaskSpec
    from repro.sim.trace import Trace

    # The first table family holding the scheme sets the costs (CCP: A_D_C).
    variant = next(v for v, names in COLUMNS.items() if args.scheme in names)
    task = TaskSpec(
        cycles=args.utilization * 10_000,
        deadline=10_000,
        fault_budget=args.k,
        fault_rate=args.lam,
        costs=CostModel.favouring(variant),
    )
    trace = Trace()
    result = simulate_run(
        task,
        scheme_factory(args.scheme)(),
        PoissonFaults(task.fault_rate),
        EnergyModel.paper_dmr(),
        RandomSource(args.seed).generator(),
        recorder=trace,
    )
    print(
        f"scheme={args.scheme} U={args.utilization} λ={args.lam} k={args.k} "
        f"seed={args.seed}"
    )
    print(trace.render())
    print(
        f"completed={result.completed} timely={result.timely} "
        f"t={result.finish_time:.1f} E={result.energy:.0f} "
        f"faults={result.detected_faults} checkpoints={result.checkpoints}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.config import table_spec
    from repro.experiments.sensitivity import (
        assemble_operating_points,
        cost_ratio_frontier,
        render_operating_map,
        subdivision_benefit,
    )

    spec = table_spec(args.table)
    if args.study in ("operating-map", "fixed-m"):
        from repro.api import Study, StudySpec

        if args.study == "operating-map":
            study = Study(
                StudySpec(
                    kind="operating_map",
                    table=args.table,
                    reps=args.reps,
                    seed=args.seed,
                    u_grid=(0.55, 0.70, 0.80, 0.90),
                    lam_grid=(1e-4, 6e-4, 1.4e-3),
                )
            )
        else:
            study = Study(
                StudySpec(
                    kind="fixed_m",
                    table=args.table,
                    reps=args.reps,
                    seed=args.seed,
                )
            )
        results, _reused = _run_study(args, study)
        if args.study == "operating-map":
            points = assemble_operating_points(
                spec,
                study.cells(),
                [record.estimate for record in results],
            )
            print(render_operating_map(points, spec.schemes))
        else:
            resolved = study.spec
            print(
                f"fixed m vs num_SCP at U={resolved.u}, "
                f"λ={resolved.lam}:"
            )
            for record in results:
                cell = record.estimate
                print(f"  {record.key:>9}: P={cell.p:.4f} E={cell.e:9.0f}")
        return 0
    if args.out or args.resume:
        print(
            f"error: --out/--resume only apply to Monte-Carlo studies "
            f"(operating-map, fixed-m), not {args.study!r}",
            file=sys.stderr,
        )
        return 2
    if args.study == "cost-ratio":
        print("t_s/t_cp ratio vs optimal subdivision (span=200, λ=5e-4):")
        print(f"{'ratio':>8} {'m_SCP':>6} {'m_CCP':>6}")
        for ratio, m_scp, m_ccp in cost_ratio_frontier(200.0, rate=5e-4):
            print(f"{ratio:8.2f} {m_scp:6d} {m_ccp:6d}")
    else:
        print("subdivision benefit vs fault pressure λ·T "
              "(t_s=2, t_cp=20, rate=2.8e-3):")
        print(f"{'λ·T':>8} {'SCP saving':>11} {'CCP saving':>11}")
        rows = subdivision_benefit(
            [50.0, 100.0, 200.0, 400.0, 800.0],
            rate=2.8e-3,
            store=2.0,
            compare=20.0,
        )
        for pressure, scp, ccp in rows:
            print(f"{pressure:8.3f} {scp:11.1%} {ccp:11.1%}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_kinds:
        width = max(len(kind) for kind in STUDY_KINDS)
        for kind in STUDY_KINDS:
            print(f"{kind:<{width}}  {KIND_SUMMARIES[kind]}")
        return 0
    if args.spec is None:
        print(
            "error: a spec path is required (or use --list-kinds)",
            file=sys.stderr,
        )
        return 2
    # Only now: --list-kinds and the usage error above load no numpy.
    from repro.api import Study
    from repro.experiments.report import format_table

    study = Study.from_file(args.spec)
    results, reused = _run_study(args, study)
    computed = len(results) - reused
    spec = study.spec
    print(
        f"study kind={spec.kind} table={spec.table} "
        f"spec_hash={study.spec_hash}: {len(results)} cells "
        f"({computed} computed, {reused} reused)"
    )
    if args.csv:
        results.save_csv(args.csv)
    if not args.quiet:
        if spec.kind == "table":
            print(format_table(_table_result_from(study, results)))
        elif spec.kind == "operating_map":
            from repro.experiments.sensitivity import (
                assemble_operating_points,
                render_operating_map,
            )

            tspec = spec.resolve_table()
            points = assemble_operating_points(
                tspec,
                study.cells(),
                [record.estimate for record in results],
            )
            print(render_operating_map(points, tspec.schemes))
        elif spec.kind == "frontier":
            from repro.workloads import pareto_points, render_frontier

            points = pareto_points(
                (
                    record.axes["f"],
                    record.axes["m"],
                    record.estimate.p,
                    record.estimate.mean_finish_time_timely,
                    record.estimate.e,
                )
                for record in results
            )
            print(render_frontier(points))
        else:
            for record in results:
                cell = record.estimate
                e_text = "NaN" if math.isnan(cell.e) else f"{cell.e:.0f}"
                print(f"  {record.key}: P={cell.p:.4f} E={e_text}")
    return 0


def _cmd_record_golden(args: argparse.Namespace) -> int:
    from repro.goldens import golden_names, update_goldens

    if args.list_scenarios:
        for name in golden_names():
            print(name)
        return 0
    updates = update_goldens(args.dir, names=args.scenarios)
    for update in updates:
        print(update.render())
    changed = [u for u in updates if not u.identical]
    if changed:
        print(
            f"\n{len(changed)} of {len(updates)} golden(s) rewritten with "
            f"changes — review the diffs above (and `git diff`) before "
            f"committing"
        )
    else:
        print(f"\nall {len(updates)} golden(s) re-recorded bit-identically")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.goldens import replay_paths

    reports = replay_paths(args.paths)
    blocks = [report.render() for report in reports]
    text = "\n\n".join(blocks) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
    drifted = [report for report in reports if not report.ok]
    for report in reports:
        if report.ok:
            print(
                f"ok: {report.scenario_name} "
                f"({report.events_matched}/{report.events_total} events)"
            )
    if drifted:
        print()
        for report in drifted:
            print(report.render())
            print()
        print(
            f"{len(drifted)} of {len(reports)} golden trace(s) drifted",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(reports)} golden trace(s) replay identically")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.sim.distributed import TLSConfig, serve_worker

    kwargs = {}
    if args.idle_timeout is not None:
        kwargs["idle_timeout"] = args.idle_timeout
    if args.max_tasks is not None:
        kwargs["max_tasks"] = args.max_tasks
    if args.delay is not None:
        kwargs["delay"] = args.delay
    if args.tls_ca or args.tls_cert:
        kwargs["tls"] = TLSConfig(
            cert=args.tls_cert, key=args.tls_key, ca=args.tls_ca
        )
    try:
        return serve_worker(args.url, **kwargs)
    except OSError as exc:
        print(f"error: cannot reach coordinator {args.url}: {exc}",
              file=sys.stderr)
        return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExecutionSettings
    from repro.service import serve_forever
    from repro.service.client import DEFAULT_URL

    url = args.serve_url if args.serve_url is not None else DEFAULT_URL
    # The daemon has defensive defaults; an explicit 0 disables a knob
    # (mapped to None), and None keeps serve_forever's default.
    kwargs = {}
    if args.max_pending is not None:
        kwargs["max_pending"] = args.max_pending or None
    if args.fair_cells is not None:
        kwargs["fair_share"] = args.fair_cells or None
    if args.request_timeout is not None:
        kwargs["request_timeout"] = args.request_timeout or None
    return serve_forever(
        ExecutionSettings.from_cli_args(args),
        args.cache,
        url,
        verbose=args.verbose,
        **kwargs,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import os

    from repro.api.results import ResultSet, json_loads_exact
    from repro.errors import ConfigurationError
    from repro.service.client import DEFAULT_URL, submit_study

    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out)) or "."
        if not os.path.isdir(directory):
            raise ConfigurationError(
                f"--out directory does not exist: {directory!r}"
            )
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {args.spec!r}: {exc}")
    payload = json_loads_exact(text, what=f"spec file {args.spec!r}")
    url = args.url if args.url is not None else DEFAULT_URL

    def show_cell(event):
        if event.get("event") == "cell":
            verb = "cached" if event.get("cached") else "computed"
            print(
                f"  [{event.get('done')}/{event.get('total')}] "
                f"{event.get('key')}: {verb}"
            )

    kwargs = {}
    if args.timeout is not None:
        kwargs["timeout"] = args.timeout
    if args.retries is not None:
        kwargs["retries"] = args.retries
    envelope = submit_study(
        url,
        payload,
        stream=args.stream,
        on_event=show_cell if args.stream else None,
        **kwargs,
    )
    results = ResultSet.from_dict(envelope["result"])
    print(
        f"study kind={envelope.get('kind')} "
        f"spec_hash={envelope.get('spec_hash')}: {len(results)} cells "
        f"({envelope.get('computed')} computed, "
        f"{envelope.get('cached')} cached by the service)"
    )
    if args.out:
        results.save(args.out)
    if args.csv:
        results.save_csv(args.csv)
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for table_id in TABLE_IDS:
        print(f"{table_id}: {TABLE_TITLES[table_id]}")
    return 0


def _none_if_nan(value: Optional[float]) -> Optional[float]:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return value


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache prune|stats``: maintain a service cell cache."""
    from repro.service.cache import CellCache

    cache = CellCache(args.cache, memory=False)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache {stats['directory']}: {stats['entries']} entries")
        return 0
    if args.max_bytes is None and args.max_age is None:
        print(
            "error: give at least one of --max-bytes / --max-age",
            file=sys.stderr,
        )
        return 2
    max_age_seconds = (
        None if args.max_age is None else args.max_age * 86_400.0
    )
    report = cache.prune(
        max_bytes=args.max_bytes,
        max_age_seconds=max_age_seconds,
        dry_run=args.dry_run,
    )
    print(report.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table": _cmd_table,
        "run": _cmd_run,
        "validate": _cmd_validate,
        "demo": _cmd_demo,
        "sweep": _cmd_sweep,
        "record-golden": _cmd_record_golden,
        "replay": _cmd_replay,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "cache": _cmd_cache,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
