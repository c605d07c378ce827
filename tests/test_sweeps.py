"""Tests for the ablation sweeps.

The Monte-Carlo ablations run as table-1a studies; ``fixed_m`` and
``rate_factor`` default to the table's first row, the ``task`` below.
"""

import pytest

from repro.api import Study, StudySpec
from repro.errors import ParameterError
from repro.experiments.sweeps import FixedSubdivisionSCPPolicy, optimal_m_curves
from repro.sim.task import TaskSpec
from repro.core.checkpoints import CostModel


def _estimates(kind, **fields):
    """A table-1a study of ``kind``: cell key → estimate."""
    results = Study(StudySpec(kind=kind, table="1a", **fields)).run()
    return {record.key: record.estimate for record in results}


def _curves(u_grid, *, reps, seed):
    """A utilisation study at λ = 1.4e-3: scheme → [(u, estimate)]."""
    results = Study(
        StudySpec(kind="utilization", table="1a", u_grid=u_grid,
                  lam=1.4e-3, reps=reps, seed=seed)
    ).run()
    curves = {}
    for record in results:
        curves.setdefault(record.axes["scheme"], []).append(
            (record.axes["u"], record.estimate)
        )
    return curves


@pytest.fixture
def task():
    return TaskSpec(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=CostModel.scp_favourable(),
    )


class TestFixedSubdivisionPolicy:
    def test_pins_m(self, task):
        from repro.sim.state import ExecutionState

        policy = FixedSubdivisionSCPPolicy(3)
        state = ExecutionState.fresh(task)
        policy.start(state)
        assert policy.plan(state).m == 3

    def test_rejects_bad_m(self):
        with pytest.raises(ParameterError):
            FixedSubdivisionSCPPolicy(0)


class TestFixedMStudy:
    def test_keys_and_adaptive_included(self):
        results = _estimates("fixed_m", ms=(1, 4), reps=60, seed=1)
        assert set(results) == {"m=1", "m=4", "adaptive"}

    def test_adaptive_competitive_with_best_fixed(self):
        results = _estimates("fixed_m", ms=(1, 2, 4, 8), reps=200, seed=2)
        best_fixed_p = max(
            cell.p for name, cell in results.items() if name != "adaptive"
        )
        assert results["adaptive"].p >= best_fixed_p - 0.05

    def test_adaptive_energy_matches_best_fixed_m(self):
        # Procedure num_SCP is worth it: within noise of the cheapest
        # viable fixed m, and clearly cheaper than no subdivision.
        results = _estimates(
            "fixed_m", ms=(1, 2, 4, 8, 16), reps=400, seed=41
        )
        adaptive = results["adaptive"]
        best_fixed = min(
            (cell for name, cell in results.items() if name != "adaptive"),
            key=lambda c: c.e if c.p > 0.95 else float("inf"),
        )
        assert adaptive.e <= best_fixed.e * 1.03
        assert adaptive.e < results["m=1"].e


class TestRateFactorStudy:
    def test_returns_requested_factors(self):
        results = _estimates(
            "rate_factor", factors=(1.0, 2.0), reps=60, seed=3
        )
        assert set(results) == {"factor=1.0", "factor=2.0"}
        for cell in results.values():
            assert cell.p > 0.9  # both factors keep the scheme viable

    def test_convention_does_not_change_the_story(self):
        # λ (simulation-consistent) vs 2λ (paper equations): both keep
        # the scheme at P≈1, with energies within 2%.
        results = _estimates(
            "rate_factor", factors=(1.0, 2.0), reps=400, seed=43
        )
        lam, twice = results["factor=1.0"], results["factor=2.0"]
        assert lam.p > 0.98 and twice.p > 0.98
        assert abs(lam.e - twice.e) < 0.02 * lam.e


class TestUtilizationSweep:
    def test_curve_shapes(self):
        curves = _curves((0.7, 0.8), reps=80, seed=4)
        assert set(curves) == {"Poisson", "k-f-t", "A_D", "A_D_S"}
        for points in curves.values():
            assert [u for u, _ in points] == [0.7, 0.8]

    def test_static_p_collapses_with_utilization(self):
        curves = _curves((0.60, 0.82), reps=150, seed=5)
        poisson = curves["Poisson"]
        assert poisson[0][1].p > poisson[1][1].p
        adaptive = curves["A_D_S"]
        assert adaptive[1][1].p > 0.9  # stays near 1 where static collapses


class TestOptimalMCurves:
    def test_curves_for_each_kind(self):
        curves = optimal_m_curves(
            [100.0, 200.0], rate=2.8e-3, store=2.0, compare=20.0
        )
        assert len(curves) == 4  # 2 spans × {scp, ccp}
        kinds = {c.kind for c in curves}
        assert kinds == {"scp", "ccp"}

    def test_marked_optimum_is_curve_minimum(self):
        curves = optimal_m_curves([200.0], rate=2.8e-3, store=2.0, compare=20.0)
        for curve in curves:
            assert curve.optimal_value == min(curve.values)
            assert curve.ms[curve.values.index(min(curve.values))] == curve.optimal_m

    def test_longer_spans_subdivide_more(self):
        # Paper fig. 2: longer intervals under fault pressure want more
        # SCPs.
        curves = optimal_m_curves(
            [100.0, 177.0, 300.0, 500.0],
            rate=2 * 1.4e-3,
            store=2.0,
            compare=20.0,
            max_m=16,
        )
        scp = {c.span: c.optimal_m for c in curves if c.kind == "scp"}
        assert scp[500.0] >= scp[100.0]

    def test_empty_spans_rejected(self):
        with pytest.raises(ParameterError):
            optimal_m_curves([], rate=1e-3, store=2.0, compare=20.0)
