"""Canonical cell enumeration for every experiment the library runs.

A *study* — a table regeneration, a fixed-m ablation, a utilisation
sweep, an operating map — is ultimately a flat, ordered list of Monte-
Carlo cells, each fully described by a picklable job.  This module is
the single place that list is built: every
:class:`~repro.api.spec.StudySpec` kind expands through one of these
functions — same cells, same seeds, same jobs on every backend and in
the study service's cell cache.

Seeding is part of the contract and is therefore frozen here:

* table/row cells fork the root :class:`~repro.sim.rng.RandomSource`
  with a stable per-cell label (:func:`cell_label` — arithmetic, never
  ``hash``);
* fixed-m and rate-factor cells share the study seed verbatim;
* utilisation-sweep cells use ``seed + int(u * 1000)``;
* operating-map cells use ``seed + int(u * 997) + int(lam * 1e7)``;
* taskset cells fork the root source with :func:`workload_label`
  (arithmetic over the pattern name and utilization — the multi-task
  analogue of :func:`cell_label`);
* frontier cells share the study seed verbatim (like fixed-m: every
  cell is the same task under a different policy, so common random
  numbers sharpen the comparison).

Because every derivation is a pure function of (root seed, cell
identity), any *subset* of a study's cells can be recomputed in
isolation and still land on the same realisations — the property that
makes resume-from-partial :class:`~repro.api.results.ResultSet`\\ s
exact rather than approximate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.experiments.config import TableSpec
from repro.sim.backends import CellJob
from repro.sim.rng import RandomSource
from repro.sim.task import TaskSpec

__all__ = [
    "CellPlan",
    "cell_label",
    "cell_identity",
    "describe_cell_component",
    "UncacheableCell",
    "table_cell_job",
    "table_cells",
    "row_cells",
    "fixed_m_cells",
    "rate_factor_cells",
    "utilization_cells",
    "operating_map_cells",
    "workload_label",
    "taskset_cells",
    "frontier_cells",
]


@dataclass(frozen=True)
class CellPlan:
    """One cell of a study: a stable key, its axis values, and its job.

    ``key`` is unique within the study and stable across processes and
    library versions (floats are embedded via ``repr``, which
    round-trips exactly) — it is what :class:`~repro.api.results.
    ResultSet` records are addressed by, and what resume uses to decide
    which cells still need computing.  ``axes`` carries the same
    coordinates as structured pairs for CSV export and filtering.
    """

    key: str
    axes: Tuple[Tuple[str, object], ...]
    job: object  # CellJob, AnalyticCellJob or TasksetCellJob


class UncacheableCell(ValueError):
    """A cell job contains a component with no stable content identity.

    Raised by :func:`cell_identity` for payloads the canonicaliser
    cannot describe as a pure function of their content — e.g. a
    closure or lambda, whose behaviour is not recoverable from its
    qualified name.  Callers that memoise (the study service's cell
    cache) must treat such cells as compute-always, never guess a key:
    a wrong key served verbatim would be silent data corruption.
    """


def describe_cell_component(obj: object) -> object:
    """A canonical, JSON-able description of one cell-job component.

    The recursive canonicaliser behind :func:`cell_identity`.  Two
    objects describing the same computation — same dataclass fields,
    same factory over the same module-level class, same exact float
    values — produce equal descriptions; anything whose behaviour
    cannot be recovered from content (closures, lambdas, instances of
    unknown classes) raises :class:`UncacheableCell` instead of
    producing a key that could alias distinct computations.

    Floats are embedded via ``repr`` (shortest form, round-trips every
    finite double exactly, distinguishes ``-0.0``/``nan``/``inf`` as
    text), so the description — and therefore the cache key — is exact
    in the same sense the rest of the serialisation stack is.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return {"!float": repr(obj)}
    if isinstance(obj, (tuple, list)):
        return [describe_cell_component(item) for item in obj]
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise UncacheableCell(f"non-string dict keys in {obj!r}")
        return {
            "!dict": {
                key: describe_cell_component(obj[key]) for key in sorted(obj)
            }
        }
    if isinstance(obj, type):
        return {"!class": f"{obj.__module__}:{obj.__qualname__}"}
    if isinstance(obj, partial):
        return {
            "!partial": describe_cell_component(obj.func),
            "args": [describe_cell_component(item) for item in obj.args],
            "kwargs": {
                key: describe_cell_component(value)
                for key, value in sorted(obj.keywords.items())
            },
        }
    if dataclasses.is_dataclass(obj):
        return {
            "!type": f"{type(obj).__module__}:{type(obj).__qualname__}",
            "fields": {
                field.name: describe_cell_component(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if callable(obj):
        qualname = getattr(obj, "__qualname__", "")
        module = getattr(obj, "__module__", None)
        if not qualname or module is None or "<locals>" in qualname:
            # A closure/lambda's behaviour depends on captured state the
            # name does not carry — no sound content key exists.
            raise UncacheableCell(
                f"cannot derive a content identity for {obj!r}"
            )
        return {"!function": f"{module}:{qualname}"}
    raise UncacheableCell(
        f"cannot derive a content identity for {type(obj).__name__} "
        f"value {obj!r}"
    )


#: Cell-identity format tag, folded into every key.  Bump whenever the
#: canonicalisation (or anything upstream that changes what a key must
#: capture) changes incompatibly: old cache entries then miss cleanly
#: instead of aliasing.
CELL_IDENTITY_FORMAT = "repro.cell/1"


def cell_identity(job: object, *, block_size: int) -> Optional[str]:
    """Content-addressed identity of one Monte-Carlo cell, or ``None``.

    The key the study service memoises completed cells under: a sha256
    over the canonical description of *everything that determines the
    cell's estimate* — the job type, the task spec, the policy factory
    and its scheme config, reps, the derived cell seed, the fault
    process and energy model, the executor ``kernel``, and the block
    size (the unit of the blocked statistics reduction; fast-kernel
    draws are functions of it).  Axes labels and study identity are
    deliberately *not* part of the key: two different studies that
    expand to the same job share the cell — that is the point of the
    cache — while ``exact`` and ``fast`` kernels, and a sampled and an
    analytic job, are different jobs and can never alias.

    Returns ``None`` for jobs with no sound content identity (see
    :class:`UncacheableCell`) — callers compute those without caching.
    """
    try:
        described = describe_cell_component(job)
    except UncacheableCell:
        return None
    payload = json.dumps(
        {
            "format": CELL_IDENTITY_FORMAT,
            "job": described,
            "block_size": block_size,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cell_label(table_id: str, u: float, lam: float, column: int) -> int:
    """Deterministic integer label for a table cell's seed fork.

    Built from stable arithmetic (never :func:`hash`, which is salted
    per process for strings), so the same (table, row, scheme) always
    maps to the same fault realisations for a given root seed.
    """
    table_part = sum(ord(ch) * (i + 1) for i, ch in enumerate(table_id))
    u_part = int(round(u * 10_000))
    lam_part = int(round(lam * 1e9))
    return (
        table_part * 1_000_003 + u_part * 7_919 + lam_part * 101 + column
    ) & 0x7FFFFFFF


def table_cell_job(
    spec: TableSpec,
    u: float,
    lam: float,
    column: int,
    *,
    reps: int,
    source: RandomSource,
    faults_during_overhead: bool = False,
    fast_static: bool = False,
):
    """The fully-specified job of one (row, scheme) table cell.

    Seeds come from a per-cell fork of ``source`` keyed by
    :func:`cell_label`, so a cell built in isolation (resume) is
    identical to the same cell built as part of the full grid.
    """
    cell_source = source.fork(cell_label(spec.table_id, u, lam, column))
    return spec.cell_job(
        u,
        lam,
        spec.schemes[column],
        reps=reps,
        seed=cell_source.seed,
        fast_static=fast_static,
        faults_during_overhead=faults_during_overhead,
    )


def row_cells(
    spec: TableSpec,
    u: float,
    lam: float,
    *,
    reps: int,
    seed: int,
    faults_during_overhead: bool = False,
    fast_static: bool = False,
) -> List[CellPlan]:
    """The scheme cells of one (U, λ) row, in column order."""
    source = RandomSource(seed)
    return [
        CellPlan(
            key=f"u={u!r}|lam={lam!r}|scheme={scheme}",
            axes=(("u", u), ("lam", lam), ("scheme", scheme)),
            job=table_cell_job(
                spec,
                u,
                lam,
                column,
                reps=reps,
                source=source,
                faults_during_overhead=faults_during_overhead,
                fast_static=fast_static,
            ),
        )
        for column, scheme in enumerate(spec.schemes)
    ]


def table_cells(
    spec: TableSpec,
    *,
    reps: int,
    seed: int,
    faults_during_overhead: bool = False,
    fast_static: bool = False,
) -> List[CellPlan]:
    """Every (row × scheme) cell of a table, rows then columns."""
    plans: List[CellPlan] = []
    for u, lam in spec.rows:
        plans.extend(
            row_cells(
                spec,
                u,
                lam,
                reps=reps,
                seed=seed,
                faults_during_overhead=faults_during_overhead,
                fast_static=fast_static,
            )
        )
    return plans


def fixed_m_cells(
    task: TaskSpec,
    ms: Sequence[int],
    *,
    reps: int,
    seed: int,
) -> List[CellPlan]:
    """Fixed-subdivision cells plus the adaptive ``num_SCP`` control."""
    # Imported here so that expanding any other kind of study never
    # loads the ablation module.
    from repro.core.schemes import AdaptiveSCPPolicy
    from repro.experiments.sweeps import FixedSubdivisionSCPPolicy

    plans = [
        CellPlan(
            key=f"m={m}",
            axes=(("m", m),),
            job=CellJob(
                task=task,
                policy_factory=partial(FixedSubdivisionSCPPolicy, m),
                reps=reps,
                seed=seed,
            ),
        )
        for m in ms
    ]
    plans.append(
        CellPlan(
            key="adaptive",
            axes=(("m", "adaptive"),),
            job=CellJob(
                task=task,
                policy_factory=AdaptiveSCPPolicy,
                reps=reps,
                seed=seed,
            ),
        )
    )
    return plans


def rate_factor_cells(
    task: TaskSpec,
    factors: Sequence[float],
    *,
    reps: int,
    seed: int,
) -> List[CellPlan]:
    """``A_D_S`` cells under different analysis-rate factors."""
    from repro.core.schemes import AdaptiveConfig, AdaptiveSCPPolicy

    return [
        CellPlan(
            key=f"factor={factor!r}",
            axes=(("factor", factor),),
            job=CellJob(
                task=task,
                policy_factory=partial(
                    AdaptiveSCPPolicy,
                    AdaptiveConfig(analysis_rate_factor=factor),
                ),
                reps=reps,
                seed=seed,
            ),
        )
        for factor in factors
    ]


def utilization_cells(
    spec: TableSpec,
    u_grid: Sequence[float],
    lam: float,
    *,
    reps: int,
    seed: int,
    fast_static: bool = False,
) -> List[CellPlan]:
    """The (U × scheme) grid behind a utilisation sweep."""
    return [
        CellPlan(
            key=f"u={u!r}|scheme={scheme}",
            axes=(("u", u), ("lam", lam), ("scheme", scheme)),
            job=spec.cell_job(
                u,
                lam,
                scheme,
                reps=reps,
                seed=seed + int(u * 1000),
                fast_static=fast_static,
            ),
        )
        for u in u_grid
        for scheme in spec.schemes
    ]


def workload_label(pattern: str, u: float) -> int:
    """Deterministic integer label for a taskset cell's seed fork.

    The multi-task analogue of :func:`cell_label`: stable arithmetic
    over the pattern name and target utilization, never ``hash``.
    """
    pattern_part = sum(ord(ch) * (i + 1) for i, ch in enumerate(pattern))
    u_part = int(round(u * 10_000))
    return (pattern_part * 1_000_003 + u_part * 7_919) & 0x7FFFFFFF


def taskset_cells(
    patterns: Sequence[str],
    u_grid: Sequence[float],
    lam: float,
    *,
    n_tasks: int,
    horizon: float,
    sched: str,
    freqs: Sequence[float],
    reps: int,
    seed: int,
) -> List[CellPlan]:
    """The (pattern × U) grid of generated multi-task workloads.

    One cell = one workload: the taskset is regenerated inside the
    worker from the cell seed (forked per cell, so two cells can never
    share fault realisations *or* workloads), then simulated at the
    engine-selected operating point.
    """
    # Imported here to keep the api -> workloads edge lazy, matching
    # the scheme imports above.
    from repro.rts.generators import WorkloadParams
    from repro.workloads.engine import TasksetCellJob

    source = RandomSource(seed)
    return [
        CellPlan(
            key=f"pattern={pattern}|u={u!r}",
            axes=(("pattern", pattern), ("u", u), ("lam", lam)),
            job=TasksetCellJob(
                params=WorkloadParams(
                    pattern=pattern,
                    n_tasks=n_tasks,
                    utilization=u,
                    fault_rate=lam,
                ),
                horizon=horizon,
                policy=sched,
                frequencies=tuple(freqs),
                reps=reps,
                seed=source.fork(workload_label(pattern, u)).seed,
            ),
        )
        for pattern in patterns
        for u in u_grid
    ]


def frontier_cells(
    task: TaskSpec,
    freqs: Sequence[float],
    ms: Sequence[int],
    *,
    reps: int,
    seed: int,
) -> List[CellPlan]:
    """The (frequency × checkpoint-count) grid of a Pareto sweep.

    Every cell runs the same task under a different equidistant
    configuration with the study seed verbatim — common random numbers,
    like the fixed-m ablation — so dominance comparisons between
    configurations are as sharp as the rep count allows.
    """
    from repro.workloads.frontier import EquidistantPolicy

    return [
        CellPlan(
            key=f"f={f!r}|m={m}",
            axes=(("f", f), ("m", m)),
            job=CellJob(
                task=task,
                policy_factory=partial(EquidistantPolicy, f, m),
                reps=reps,
                seed=seed,
            ),
        )
        for f in freqs
        for m in ms
    ]


def operating_map_cells(
    spec: TableSpec,
    u_grid: Sequence[float],
    lam_grid: Sequence[float],
    *,
    reps: int,
    seed: int,
    fast_static: bool = False,
) -> List[CellPlan]:
    """The (λ × U × scheme) grid behind an operating map."""
    return [
        CellPlan(
            key=f"u={u!r}|lam={lam!r}|scheme={scheme}",
            axes=(("u", u), ("lam", lam), ("scheme", scheme)),
            job=spec.cell_job(
                u,
                lam,
                scheme,
                reps=reps,
                seed=seed + int(u * 997) + int(lam * 1e7),
                fast_static=fast_static,
            ),
        )
        for lam in lam_grid
        for u in u_grid
        for scheme in spec.schemes
    ]
