"""Sensitivity analysis: where does the paper's scheme win, and why.

The paper evaluates four (U, λ) points per table; a user deciding
whether to adopt A_D_S/A_D_C needs the whole operating map.  This
module computes three views the paper implies but never plots:

* :func:`assemble_operating_points` — for the (U, λ) grid of an
  ``operating_map`` :class:`~repro.api.spec.StudySpec`, which scheme
  wins on P (with an energy tie-break); :func:`render_operating_map`
  draws it as an ASCII map;
* :func:`cost_ratio_frontier` — at which ``t_s/t_cp`` ratio the SCP
  variant stops subdividing (analytic, from ``num_SCP``), i.e. when the
  technique degenerates to the DATE'03 baseline;
* :func:`subdivision_benefit` — the analytic saving of optimal
  subdivision as a function of fault pressure ``λ·T`` (the quantity the
  whole paper turns on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.optimizer import num_ccp, num_scp
from repro.core.renewal import ccp_interval_time_for_m, scp_interval_time_for_m
from repro.errors import ParameterError
from repro.experiments.config import TableSpec
from repro.sim.montecarlo import CellEstimate

__all__ = [
    "OperatingPoint",
    "assemble_operating_points",
    "render_operating_map",
    "cost_ratio_frontier",
    "subdivision_benefit",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One (U, λ) grid point with every scheme's estimate."""

    u: float
    lam: float
    cells: Dict[str, CellEstimate]
    winner: str

    def cell(self, scheme: str) -> CellEstimate:
        return self.cells[scheme]


def _pick_winner(cells: Dict[str, CellEstimate], p_slack: float) -> str:
    """Highest P wins; energy breaks ties within ``p_slack``."""
    best_p = max(cell.p for cell in cells.values())
    contenders = {
        name: cell
        for name, cell in cells.items()
        if cell.p >= best_p - p_slack and cell.p > 0
    }
    if not contenders:
        return max(cells, key=lambda n: cells[n].p)
    import math

    def energy_key(name: str) -> float:
        e = contenders[name].e
        return math.inf if math.isnan(e) else e

    return min(contenders, key=energy_key)


def assemble_operating_points(
    spec: TableSpec,
    plans,
    estimates: List[CellEstimate],
    *,
    p_slack: float = 0.02,
) -> List[OperatingPoint]:
    """Group per-cell estimates (canonical plan order) into points."""
    points: List[OperatingPoint] = []
    columns = len(spec.schemes)
    for index in range(0, len(plans), columns):
        axes = dict(plans[index].axes)
        cells = {
            dict(plans[index + column].axes)["scheme"]: estimates[index + column]
            for column in range(columns)
        }
        points.append(
            OperatingPoint(
                u=axes["u"], lam=axes["lam"], cells=cells,
                winner=_pick_winner(cells, p_slack),
            )
        )
    return points


def render_operating_map(
    points: List[OperatingPoint], schemes: Sequence[str]
) -> str:
    """ASCII map: rows = λ (descending), columns = U, cell = winner."""
    if not points:
        raise ParameterError("no points to render")
    glyphs = {scheme: scheme[0] if scheme[0] != "A" else None for scheme in schemes}
    # Disambiguate the adaptive family.
    for scheme in schemes:
        if glyphs.get(scheme) is None:
            glyphs[scheme] = {"A_D": "d", "A_D_S": "S", "A_D_C": "C"}.get(
                scheme, scheme[-1]
            )
    us = sorted({p.u for p in points})
    lams = sorted({p.lam for p in points}, reverse=True)
    lookup = {(p.u, p.lam): p for p in points}
    lines = ["winner per (U, λ): " + ", ".join(
        f"{glyphs[s]}={s}" for s in schemes
    )]
    header = "  λ \\ U   " + " ".join(f"{u:5.2f}" for u in us)
    lines.append(header)
    for lam in lams:
        row = [f"{lam:8.1e} "]
        for u in us:
            point = lookup.get((u, lam))
            row.append(f"{glyphs.get(point.winner, '?'):>5}" if point else "    ?")
        lines.append(" ".join(row))
    return "\n".join(lines)


def cost_ratio_frontier(
    span: float,
    *,
    rate: float,
    checkpoint_cycles: float = 22.0,
    ratios: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0),
) -> List[Tuple[float, int, int]]:
    """(t_s/t_cp ratio, optimal SCP m, optimal CCP m) along a cost sweep.

    Total checkpoint cost ``t_s + t_cp`` is held at ``checkpoint_cycles``
    so only the *split* varies.  The SCP variant subdivides while stores
    are the cheap half; the CCP variant mirrors it — quantifying the
    paper's "choose the checkpoint type to match the hardware" advice.
    """
    if span <= 0:
        raise ParameterError(f"span must be > 0, got {span}")
    results: List[Tuple[float, int, int]] = []
    for ratio in ratios:
        store = checkpoint_cycles * ratio / (1.0 + ratio)
        compare = checkpoint_cycles - store
        m_scp = num_scp(span, rate=rate, store=store, compare=compare).m
        m_ccp = num_ccp(span, rate=rate, store=store, compare=compare).m
        results.append((ratio, m_scp, m_ccp))
    return results


def subdivision_benefit(
    spans: Sequence[float],
    *,
    rate: float,
    store: float,
    compare: float,
) -> List[Tuple[float, float, float]]:
    """(λ·T, SCP saving, CCP saving) — relative R reduction vs m = 1.

    The saving grows with fault pressure λ·T; at λ·T → 0 subdivision is
    pure overhead and the optimiser returns m = 1 (saving 0).
    """
    if not spans:
        raise ParameterError("spans must be non-empty")
    out: List[Tuple[float, float, float]] = []
    for span in spans:
        scp_plan = num_scp(span, rate=rate, store=store, compare=compare)
        ccp_plan = num_ccp(span, rate=rate, store=store, compare=compare)
        scp_m1 = scp_interval_time_for_m(
            1, span=span, rate=rate, store=store, compare=compare
        )
        ccp_m1 = ccp_interval_time_for_m(
            1, span=span, rate=rate, store=store, compare=compare
        )
        out.append(
            (
                rate * span,
                1.0 - scp_plan.expected_time / scp_m1,
                1.0 - ccp_plan.expected_time / ccp_m1,
            )
        )
    return out
