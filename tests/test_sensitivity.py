"""Tests for the sensitivity / crossover analysis."""

import pytest

from repro.api import Study, StudySpec
from repro.errors import ConfigurationError, ParameterError
from repro.experiments.config import table_spec
from repro.experiments.sensitivity import (
    assemble_operating_points,
    cost_ratio_frontier,
    render_operating_map,
    subdivision_benefit,
)


class TestOperatingMap:
    @pytest.fixture(scope="class")
    def points(self):
        study = Study(
            StudySpec(
                kind="operating_map",
                table="1a",
                u_grid=(0.55, 0.80),
                lam_grid=(1e-4, 1.4e-3),
                reps=150,
                seed=5,
            )
        )
        return assemble_operating_points(
            table_spec("1a"),
            study.cells(),
            [record.estimate for record in study.run()],
        )

    def test_grid_coverage(self, points):
        assert len(points) == 4
        assert {(p.u, p.lam) for p in points} == {
            (0.55, 1e-4),
            (0.80, 1e-4),
            (0.55, 1.4e-3),
            (0.80, 1.4e-3),
        }

    def test_high_pressure_point_goes_adaptive(self, points):
        # U=0.80, λ=1.4e-3: statics collapse; the subdivided scheme wins.
        point = next(p for p in points if p.u == 0.80 and p.lam == 1.4e-3)
        assert point.winner in ("A_D_S", "A_D")
        assert point.cell("A_D_S").p > 0.9

    def test_easy_point_prefers_cheap_static(self, points):
        # U=0.55, λ=1e-4: everyone completes; statics use less energy.
        point = next(p for p in points if p.u == 0.55 and p.lam == 1e-4)
        assert point.winner in ("Poisson", "k-f-t")

    def test_render(self, points):
        text = render_operating_map(points, table_spec("1a").schemes)
        assert "λ \\ U" in text
        assert "S=A_D_S" in text
        # Two λ rows rendered.
        assert text.count("e-0") >= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="operating_map", table="1a", u_grid=(),
                      lam_grid=(1e-4,), reps=10)
        with pytest.raises(ParameterError):
            render_operating_map([], table_spec("1a").schemes)


class TestCostRatioFrontier:
    # At λ·T ≈ 0.1 the crossover is crisp: each variant subdivides only
    # on its own side of the cost split.  (At the paper's heavier
    # λ·T ≈ 0.56 both keep m ≥ 2 everywhere — subdivision always pays.)
    RATE = 5e-4
    RATIOS = (0.02, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0)

    def test_scp_subdivision_vanishes_as_stores_get_expensive(self):
        frontier = cost_ratio_frontier(200.0, rate=self.RATE, ratios=self.RATIOS)
        m_scp = [m for _, m, _ in frontier]
        assert m_scp[0] > 1
        assert m_scp[-1] == 1
        assert all(b <= a for a, b in zip(m_scp, m_scp[1:]))

    def test_ccp_mirrors_scp(self):
        frontier = cost_ratio_frontier(200.0, rate=self.RATE, ratios=self.RATIOS)
        m_ccp = [m for _, _, m in frontier]
        assert m_ccp[0] == 1
        assert m_ccp[-1] > 1
        assert all(b >= a for a, b in zip(m_ccp, m_ccp[1:]))

    def test_heavy_pressure_always_subdivides_something(self):
        frontier = cost_ratio_frontier(200.0, rate=2.8e-3, ratios=self.RATIOS)
        for _ratio, m_scp, m_ccp in frontier:
            assert max(m_scp, m_ccp) >= 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            cost_ratio_frontier(0.0, rate=1e-3)


class TestSubdivisionBenefit:
    def test_benefit_grows_with_fault_pressure(self):
        rows = subdivision_benefit(
            [50.0, 150.0, 400.0, 900.0], rate=2.8e-3, store=2.0, compare=20.0
        )
        pressures = [p for p, _, _ in rows]
        scp_savings = [s for _, s, _ in rows]
        assert pressures == sorted(pressures)
        assert scp_savings == sorted(scp_savings)
        assert scp_savings[-1] > 0.2

    def test_no_benefit_without_faults(self):
        rows = subdivision_benefit([200.0], rate=1e-9, store=2.0, compare=20.0)
        assert rows[0][1] == pytest.approx(0.0, abs=1e-6)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            subdivision_benefit([], rate=1e-3, store=2.0, compare=20.0)
