"""Runners that regenerate the paper's tables cell by cell.

:func:`run_table` Monte-Carlo-estimates every (row × scheme) cell of a
:class:`~repro.experiments.config.TableSpec` and pairs each estimate
with the published value, producing a :class:`TableResult` that the
report module renders and the benchmark suite checks for shape.

Both runners are thin shims over the :mod:`repro.api` façade: the cell
grid comes from the canonical expansion in :mod:`repro.api.plans`
(shared with the declarative :class:`~repro.api.spec.StudySpec` path,
so the two can never drift) and is dispatched as one batch through the
session's :class:`~repro.sim.parallel.BatchRunner` — every execution
backend (serial, process pool, distributed) sees the same job stream.
With ``fast_static=True`` the static scheme columns become
:class:`~repro.sim.backends.AnalyticCellJob`\\ s — their exact
expectations in closed form — mixed into the same batch as the adaptive
(executor) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.plans import row_cells, table_cells
from repro.errors import ConfigurationError
from repro.experiments.config import TableSpec, table_spec
from repro.experiments.paper_data import PaperCell, paper_cell
from repro.sim.montecarlo import CellEstimate
from repro.sim.parallel import BatchRunner, runner_scope
from repro.sim.rng import RandomSource

__all__ = [
    "CellResult",
    "RowResult",
    "TableResult",
    "assemble_table_result",
    "run_table",
    "run_row",
]


@dataclass(frozen=True)
class CellResult:
    """One measured cell with its published counterpart (if any)."""

    scheme: str
    measured: CellEstimate
    paper: Optional[PaperCell]

    @property
    def p(self) -> float:
        return self.measured.p

    @property
    def e(self) -> float:
        return self.measured.e

    @property
    def p_error(self) -> float:
        """Absolute error vs the published P (NaN if unpublished)."""
        if self.paper is None:
            return math.nan
        return self.measured.p - self.paper.p

    @property
    def e_ratio(self) -> float:
        """measured E / published E (NaN when either is NaN)."""
        if self.paper is None or self.paper.e_is_nan or math.isnan(self.measured.e):
            return math.nan
        return self.measured.e / self.paper.e


@dataclass(frozen=True)
class RowResult:
    """All scheme cells of one (U, λ) row."""

    u: float
    lam: float
    cells: Dict[str, CellResult]

    def cell(self, scheme: str) -> CellResult:
        if scheme not in self.cells:
            raise ConfigurationError(
                f"no scheme {scheme!r} in row; have {sorted(self.cells)}"
            )
        return self.cells[scheme]


@dataclass(frozen=True)
class TableResult:
    """A regenerated table: spec, reps and all rows."""

    spec: TableSpec
    reps: int
    seed: int
    rows: List[RowResult]

    def row(self, u: float, lam: float) -> RowResult:
        for row in self.rows:
            if row.u == u and row.lam == lam:
                return row
        raise ConfigurationError(f"no row (U={u}, λ={lam}) in table")

    @property
    def schemes(self) -> Tuple[str, ...]:
        return self.spec.schemes


def _assemble_row(
    spec: TableSpec, u: float, lam: float, estimates: List[CellEstimate]
) -> RowResult:
    """Pair one row's estimates (in scheme order) with published cells."""
    cells = {
        scheme: CellResult(
            scheme=scheme,
            measured=measured,
            paper=paper_cell(spec.table_id, u, lam, scheme),
        )
        for scheme, measured in zip(spec.schemes, estimates)
    }
    return RowResult(u=u, lam=lam, cells=cells)


def run_row(
    spec: TableSpec,
    u: float,
    lam: float,
    *,
    reps: int,
    source: RandomSource,
    faults_during_overhead: bool = False,
    runner: Optional[BatchRunner] = None,
    backend=None,
    fast_static: bool = False,
) -> RowResult:
    """Estimate all scheme cells of one row.

    ``backend`` names where cells run (``"serial"``, ``"process"``,
    ``"distributed"``) as an alternative to passing a ``runner``.
    """
    plans = row_cells(
        spec,
        u,
        lam,
        reps=reps,
        seed=source.seed,
        faults_during_overhead=faults_during_overhead,
        fast_static=fast_static,
    )
    with runner_scope(runner, backend=backend) as scoped:
        estimates = scoped.run_cells([plan.job for plan in plans])
    return _assemble_row(spec, u, lam, estimates)


def run_table(
    table_id_or_spec,
    *,
    reps: int = 2000,
    seed: int = 2006,
    faults_during_overhead: bool = False,
    runner: Optional[BatchRunner] = None,
    backend=None,
    fast_static: bool = False,
) -> TableResult:
    """Regenerate one full table.

    Parameters
    ----------
    table_id_or_spec:
        A published table id (``"1a"`` ... ``"4b"``) or a custom
        :class:`TableSpec`.
    reps:
        Monte-Carlo repetitions per cell (the paper used 10,000; the
        default keeps the full suite interactive — pass more for tighter
        intervals).
    seed:
        Root seed; every cell derives an independent substream, so
        results are reproducible and rows are independent.
    runner:
        Optional :class:`~repro.sim.parallel.BatchRunner`.  The *whole*
        cell grid is dispatched in one batch, so worker processes stay
        busy across row boundaries.  Results are identical to the serial
        path for any worker count.
    backend:
        Alternative to ``runner``: name where cells run (``"serial"``,
        ``"process"``, ``"distributed"``) or pass an
        :class:`~repro.sim.backends.ExecutionBackend`; a named backend
        is built for this call and released afterwards.  Results are
        bit-identical across backends for a fixed block size.
    fast_static:
        Compute the static scheme columns (Poisson, k-f-t) in closed
        form instead of running the event executor: every field is
        exact mode's expectation, doomed runs abandoned as the executor
        abandons them, with zero-width intervals and a cost that does
        not grow with ``reps``.  Default off so published-table
        comparisons carry the executor's own sampling noise.
    """
    spec = (
        table_id_or_spec
        if isinstance(table_id_or_spec, TableSpec)
        else table_spec(table_id_or_spec)
    )
    plans = table_cells(
        spec,
        reps=reps,
        seed=seed,
        faults_during_overhead=faults_during_overhead,
        fast_static=fast_static,
    )
    with runner_scope(runner, backend=backend) as scoped:
        estimates = scoped.run_cells([plan.job for plan in plans])
    return assemble_table_result(
        spec, reps=reps, seed=seed, estimates=estimates
    )


def assemble_table_result(
    spec: TableSpec,
    *,
    reps: int,
    seed: int,
    estimates: List[CellEstimate],
) -> TableResult:
    """Pair a table's estimates (canonical cell order) with paper data.

    ``estimates`` must be in the order :func:`repro.api.plans.
    table_cells` emits — rows in spec order, schemes in column order —
    which is both what :func:`run_table` produces and what a
    table-kind :class:`~repro.api.results.ResultSet` iterates in.
    """
    columns = len(spec.schemes)
    if len(estimates) != columns * len(spec.rows):
        raise ConfigurationError(
            f"expected {columns * len(spec.rows)} estimates for table "
            f"{spec.table_id!r}, got {len(estimates)}"
        )
    rows = [
        _assemble_row(
            spec, u, lam,
            estimates[row_index * columns:(row_index + 1) * columns],
        )
        for row_index, (u, lam) in enumerate(spec.rows)
    ]
    return TableResult(spec=spec, reps=reps, seed=seed, rows=rows)

