"""Rendering and shape-checking of regenerated tables.

:func:`format_table` prints a paper-style table with measured values
next to the published ones.  :func:`shape_checks` evaluates the
reproduction criteria — the orderings and rough factors that must hold
for the reproduction to count, independent of absolute numbers (listed
in its docstring).  :func:`markdown_table` renders the same comparison
as Markdown (``repro table --markdown``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.experiments.tables import RowResult, TableResult

__all__ = ["format_table", "markdown_table", "shape_checks", "ShapeCheck"]


def _fmt_p(value: float) -> str:
    return "  NaN " if math.isnan(value) else f"{value:.4f}"


def _fmt_e(value: float) -> str:
    return "   NaN" if math.isnan(value) else f"{value:6.0f}"


def format_table(result: TableResult, *, show_paper: bool = True) -> str:
    """Human-readable rendering, one row per (U, λ, scheme)."""
    spec = result.spec
    lines = [
        f"Table {spec.table_id}: {spec.title}",
        f"reps={result.reps} seed={result.seed} deadline={spec.deadline:.0f} "
        f"costs=(ts={spec.costs.store_cycles:.0f}, tcp={spec.costs.compare_cycles:.0f}) "
        f"k={spec.fault_budget} static@f={spec.static_frequency:.0f}",
        "",
    ]
    header = f"{'U':>5} {'lambda':>8} {'scheme':>8} | {'P':>6} {'E':>7}"
    if show_paper:
        header += f" | {'P paper':>7} {'E paper':>7} | {'dP':>7} {'E/Ep':>5}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.rows:
        for scheme in result.schemes:
            cell = row.cell(scheme)
            line = (
                f"{row.u:5.2f} {row.lam:8.1e} {scheme:>8} | "
                f"{_fmt_p(cell.p)} {_fmt_e(cell.e)}"
            )
            if show_paper:
                if cell.paper is None:
                    line += " |  (unpublished)"
                else:
                    ratio = cell.e_ratio
                    ratio_text = "  NaN" if math.isnan(ratio) else f"{ratio:5.2f}"
                    line += (
                        f" | {_fmt_p(cell.paper.p):>7} {_fmt_e(cell.paper.e):>7}"
                        f" | {cell.p_error:+7.4f} {ratio_text}"
                    )
            lines.append(line)
        lines.append("")
    return "\n".join(lines)


def markdown_table(result: TableResult) -> str:
    """Markdown rendering of a regenerated table (paper vs measured)."""
    spec = result.spec
    lines = [
        f"### Table {spec.table_id} — {spec.title}",
        "",
        f"`reps={result.reps}`, `seed={result.seed}`.",
        "",
        "| U | λ | scheme | P (paper) | P (ours) | E (paper) | E (ours) |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in result.rows:
        for scheme in result.schemes:
            cell = row.cell(scheme)
            p_paper = _fmt_p(cell.paper.p).strip() if cell.paper else "—"
            e_paper = _fmt_e(cell.paper.e).strip() if cell.paper else "—"
            lines.append(
                f"| {row.u:.2f} | {row.lam:.1e} | {scheme} "
                f"| {p_paper} | {_fmt_p(cell.p).strip()} "
                f"| {e_paper} | {_fmt_e(cell.e).strip()} |"
            )
    lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class ShapeCheck:
    """One reproduction criterion with its verdict."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _p_not_below(a, b) -> bool:
    """``P(a)`` is not statistically below ``P(b)``.

    Uses the Wilson intervals both estimates carry, so the test is
    forgiving at 100 reps and strict at 10,000 — no hand-tuned slack.
    """
    return a.measured.p_timely.high >= b.measured.p_timely.low


def _e_not_above(a, b, headroom: float = 1.01) -> bool:
    """``E(a)`` is not statistically above ``E(b)·headroom``."""
    ea, eb = a.measured.energy_timely, b.measured.energy_timely
    if ea.is_nan or eb.is_nan:
        return True
    return ea.low <= eb.high * headroom


def shape_checks(result: TableResult) -> List[ShapeCheck]:
    """Evaluate the reproduction's shape criteria on a regenerated table.

    The criteria depend on the table family:

    * static-at-``f1`` tables (1, 3): the adaptive DVS schemes must
      dominate the static baselines on timeliness, and the paper's
      scheme must not consume more energy than ``A_D``;
    * static-at-``f2`` tables (2, 4): the paper's scheme must beat
      ``A_D`` on timeliness (all schemes have comparable energy);
    * ``U = 1.0`` rows at ``f1`` must be infeasible for static schemes.

    Comparisons use the cells' own confidence intervals (Wilson for P,
    normal for E), so the checks scale correctly with the rep count.
    """
    spec = result.spec
    ours = spec.schemes[-1]  # A_D_S or A_D_C
    checks: List[ShapeCheck] = []
    static_f1 = spec.static_frequency == 1.0

    for row in result.rows:
        tag = f"U={row.u:.2f}, λ={row.lam:.1e}"
        poisson = row.cell("Poisson")
        kft = row.cell("k-f-t")
        ad = row.cell("A_D")
        own = row.cell(ours)

        if static_f1:
            checks.append(
                ShapeCheck(
                    name=f"{tag}: adaptive dominates static on P",
                    passed=_p_not_below(own, poisson)
                    and _p_not_below(own, kft)
                    and _p_not_below(ad, poisson),
                    detail=(
                        f"P({ours})={own.p:.4f}, P(A_D)={ad.p:.4f}, "
                        f"P(Poisson)={poisson.p:.4f}, P(k-f-t)={kft.p:.4f}"
                    ),
                )
            )
            checks.append(
                ShapeCheck(
                    name=f"{tag}: {ours} at least matches A_D on P",
                    passed=_p_not_below(own, ad),
                    detail=f"P({ours})={own.p:.4f} vs P(A_D)={ad.p:.4f}",
                )
            )
            if not math.isnan(own.e) and not math.isnan(ad.e):
                checks.append(
                    ShapeCheck(
                        name=f"{tag}: {ours} saves energy vs A_D",
                        passed=_e_not_above(own, ad),
                        detail=f"E({ours})={own.e:.0f} vs E(A_D)={ad.e:.0f}",
                    )
                )
            if row.u >= 1.0:
                checks.append(
                    ShapeCheck(
                        name=f"{tag}: static schemes infeasible at U=1",
                        passed=poisson.p == 0.0 and kft.p == 0.0,
                        detail=(
                            f"P(Poisson)={poisson.p:.4f}, P(k-f-t)={kft.p:.4f}"
                        ),
                    )
                )
        else:
            checks.append(
                ShapeCheck(
                    name=f"{tag}: {ours} beats A_D and static on P",
                    passed=_p_not_below(own, ad)
                    and _p_not_below(own, poisson)
                    and _p_not_below(own, kft),
                    detail=(
                        f"P({ours})={own.p:.4f}, P(A_D)={ad.p:.4f}, "
                        f"P(Poisson)={poisson.p:.4f}"
                    ),
                )
            )
            if not math.isnan(own.e) and not math.isnan(ad.e):
                checks.append(
                    ShapeCheck(
                        name=f"{tag}: energies comparable at f2",
                        passed=_e_not_above(own, ad, headroom=1.10)
                        and _e_not_above(ad, own, headroom=1.10),
                        detail=f"E({ours})={own.e:.0f} vs E(A_D)={ad.e:.0f}",
                    )
                )
    return checks
