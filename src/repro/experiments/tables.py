"""Paper tables as measured cells next to their published values.

A table-kind :class:`~repro.api.spec.StudySpec` runs every (row ×
scheme) cell of a :class:`~repro.experiments.config.TableSpec`;
:func:`assemble_table_result` pairs its estimates with the published
cells, producing the :class:`TableResult` that the report module
renders and shape-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import TableSpec
from repro.experiments.paper_data import PaperCell, paper_cell
from repro.sim.montecarlo import CellEstimate

__all__ = [
    "CellResult",
    "RowResult",
    "TableResult",
    "assemble_table_result",
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
    which is the order a table-kind :class:`~repro.api.results.
    ResultSet` iterates in.
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

