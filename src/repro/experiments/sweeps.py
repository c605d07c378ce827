"""Ablation pieces around the paper's design choices.

The Monte-Carlo ablations are :class:`~repro.api.spec.StudySpec` kinds
(``fixed_m``, ``rate_factor``, ``utilization``) whose cells
:mod:`repro.api.plans` builds; ``tests/test_sweeps.py`` pins their
headline claims.  This module holds what they need beyond the table
schemes, plus the analytic view:

* :class:`FixedSubdivisionSCPPolicy` — ``A_D_S`` with ``m`` pinned, the
  control a ``fixed_m`` study runs against procedure ``num_SCP``;
* :func:`optimal_m_curves` — the ``R1(m)`` / ``R2(m)`` analysis curves
  behind paper fig. 2, with the chosen optimum marked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core import renewal
from repro.core.optimizer import brute_force_num_ccp, brute_force_num_scp
from repro.core.schemes import AdaptiveConfig, AdaptiveSCPPolicy
from repro.errors import ParameterError

__all__ = [
    "FixedSubdivisionSCPPolicy",
    "optimal_m_curves",
    "MCurve",
]


class FixedSubdivisionSCPPolicy(AdaptiveSCPPolicy):
    """``A_D_S`` with the subdivision count pinned (ablation control).

    Replaces procedure ``num_SCP`` with a constant ``m`` while keeping
    the adaptive interval and DVS machinery — isolating the value of the
    paper's optimisation.
    """

    def __init__(self, m: int, config: AdaptiveConfig | None = None) -> None:
        if m < 1:
            raise ParameterError(f"m must be >= 1, got {m}")
        super().__init__(config)
        self.fixed_m = m
        self.name = f"A_D_S[m={m}]"

    def _subdivide(self, state, interval: float) -> int:
        return self.fixed_m


@dataclass(frozen=True)
class MCurve:
    """One ``R(m)`` analysis curve with its optimum."""

    kind: str  # 'scp' or 'ccp'
    span: float
    rate: float
    ms: Tuple[int, ...]
    values: Tuple[float, ...]
    optimal_m: int

    @property
    def optimal_value(self) -> float:
        return self.values[self.ms.index(self.optimal_m)]


def optimal_m_curves(
    spans: Sequence[float],
    *,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
    max_m: int = 16,
) -> List[MCurve]:
    """``R1(m)``/``R2(m)`` for a grid of interval lengths (fig. 2 data)."""
    if not spans:
        raise ParameterError("spans must be non-empty")
    curves: List[MCurve] = []
    ms = tuple(range(1, max_m + 1))
    for span in spans:
        scp_values = tuple(
            renewal.scp_interval_time_for_m(
                m, span=span, rate=rate, store=store, compare=compare,
                rollback=rollback,
            )
            for m in ms
        )
        ccp_values = tuple(
            renewal.ccp_interval_time_for_m(
                m, span=span, rate=rate, store=store, compare=compare,
                rollback=rollback,
            )
            for m in ms
        )
        curves.append(
            MCurve(
                kind="scp",
                span=span,
                rate=rate,
                ms=ms,
                values=scp_values,
                optimal_m=brute_force_num_scp(
                    span, rate=rate, store=store, compare=compare,
                    rollback=rollback, max_m=max_m,
                ).m,
            )
        )
        curves.append(
            MCurve(
                kind="ccp",
                span=span,
                rate=rate,
                ms=ms,
                values=ccp_values,
                optimal_m=brute_force_num_ccp(
                    span, rate=rate, store=store, compare=compare,
                    rollback=rollback, max_m=max_m,
                ).m,
            )
        )
    return curves
