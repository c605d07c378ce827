"""Parameter sweeps and ablations around the paper's design choices.

These quantify the mechanisms behind the paper's results;
``tests/test_sweeps.py`` pins their headline claims:

* :func:`fixed_m_study` — is the *adaptive* choice of ``m`` (procedure
  ``num_SCP``) actually better than any fixed subdivision?
* :func:`rate_factor_study` — sensitivity to the analysis rate
  (paper equations use ``2λ`` for DMR, the simulation injects ``λ``);
* :func:`utilization_sweep` — P/E versus utilisation for every scheme
  (the "figure" view of the paper's tables);
* :func:`optimal_m_curves` — the ``R1(m)`` / ``R2(m)`` analysis curves
  behind paper fig. 2, with the chosen optimum marked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import renewal
from repro.core.optimizer import brute_force_num_ccp, brute_force_num_scp
from repro.core.schemes import (
    AdaptiveConfig,
    AdaptiveSCPPolicy,
)
from repro.errors import ParameterError
from repro.experiments.config import TableSpec
from repro.sim.montecarlo import CellEstimate
from repro.sim.parallel import BatchRunner, runner_scope
from repro.sim.task import TaskSpec

# The Monte-Carlo studies below are thin shims over the façade's
# canonical cell expansion in repro.api.plans (shared with the
# declarative repro.api.StudySpec path, so the two can never drift).
# plans imports FixedSubdivisionSCPPolicy from here lazily, which is
# what keeps this module-level import acyclic.
from repro.api.plans import (
    fixed_m_cells,
    rate_factor_cells,
    utilization_cells,
)

__all__ = [
    "FixedSubdivisionSCPPolicy",
    "fixed_m_study",
    "rate_factor_study",
    "utilization_sweep",
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


def fixed_m_study(
    task: TaskSpec,
    ms: Sequence[int],
    *,
    reps: int = 1000,
    seed: int = 0,
    runner: Optional[BatchRunner] = None,
    backend=None,
) -> Dict[str, CellEstimate]:
    """(P, E) for fixed ``m`` values and for the adaptive ``num_SCP``.

    Keys: ``"m=<k>"`` for each fixed value plus ``"adaptive"``.  With a
    ``runner`` (or a ``backend`` name — serial/process/distributed) the
    whole study is dispatched as one cell grid.
    """
    if not ms:
        raise ParameterError("ms must be non-empty")
    plans = fixed_m_cells(task, ms, reps=reps, seed=seed)
    with runner_scope(runner, backend=backend) as scoped:
        estimates = scoped.run_cells([plan.job for plan in plans])
    return dict(zip((plan.key for plan in plans), estimates))


def rate_factor_study(
    task: TaskSpec,
    factors: Sequence[float] = (1.0, 2.0),
    *,
    reps: int = 1000,
    seed: int = 0,
    runner: Optional[BatchRunner] = None,
    backend=None,
) -> Dict[float, CellEstimate]:
    """(P, E) of ``A_D_S`` under different analysis-rate factors."""
    if not factors:
        raise ParameterError("factors must be non-empty")
    plans = rate_factor_cells(task, factors, reps=reps, seed=seed)
    with runner_scope(runner, backend=backend) as scoped:
        estimates = scoped.run_cells([plan.job for plan in plans])
    return dict(zip(factors, estimates))


def utilization_sweep(
    spec: TableSpec,
    u_grid: Sequence[float],
    lam: float,
    *,
    reps: int = 500,
    seed: int = 0,
    runner: Optional[BatchRunner] = None,
    backend=None,
    fast_static: bool = False,
) -> Dict[str, List[Tuple[float, CellEstimate]]]:
    """P/E curves over utilisation for every scheme of a table spec.

    This is the "figure" rendering of the paper's tabular data: the
    crossover where static schemes collapse while the adaptive schemes
    hold P ≈ 1 appears directly.  With a ``runner`` the whole
    (U × scheme) grid is dispatched in one batch; ``fast_static``
    swaps the static columns for closed-form
    :class:`~repro.sim.backends.AnalyticCellJob` cells (exact mode's
    expectation at a cost independent of ``reps`` — the knob that
    makes dense U grids cheap).
    """
    if not u_grid:
        raise ParameterError("u_grid must be non-empty")
    plans = utilization_cells(
        spec, u_grid, lam, reps=reps, seed=seed, fast_static=fast_static
    )
    with runner_scope(runner, backend=backend) as scoped:
        estimates = scoped.run_cells([plan.job for plan in plans])
    curves: Dict[str, List[Tuple[float, CellEstimate]]] = {
        scheme: [] for scheme in spec.schemes
    }
    for plan, cell in zip(plans, estimates):
        axes = dict(plan.axes)
        curves[axes["scheme"]].append((axes["u"], cell))
    return curves


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
