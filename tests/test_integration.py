"""End-to-end reproduction regression: every table's shape criteria.

These are the tests that say "the reproduction reproduces".  Reps are
kept moderate (seeded) so the whole file stays under a couple of
minutes; the benchmark harness runs the same checks at higher reps.
"""

import math

import pytest

from repro.experiments.config import all_table_specs
from repro.experiments.report import shape_checks
from tests.conftest import table_result

REPS = 250
SEED = 2006


@pytest.fixture(scope="module")
def all_results():
    return {
        spec.table_id: table_result(spec.table_id, reps=REPS, seed=SEED)
        for spec in all_table_specs()
    }


@pytest.mark.parametrize("table_id", [s.table_id for s in all_table_specs()])
def test_shape_criteria(all_results, table_id):
    checks = shape_checks(all_results[table_id])
    failed = [c for c in checks if not c.passed]
    assert not failed, "\n".join(str(c) for c in failed)


class TestQuantitativeAgreement:
    """Beyond orderings: measured values track the published ones."""

    def test_static_energy_magnitudes(self, all_results):
        # Published static-at-f1 energies are ≈39,000; ours must land
        # within 15% (the paper's own cells vary by ~2%).
        for table_id in ("1a", "3a"):
            for row in all_results[table_id].rows:
                for scheme in ("Poisson", "k-f-t"):
                    cell = row.cell(scheme)
                    if math.isnan(cell.e) or cell.paper is None:
                        continue
                    assert cell.e == pytest.approx(cell.paper.e, rel=0.15)

    def test_f2_energy_magnitudes(self, all_results):
        for table_id in ("2a", "4a"):
            for row in all_results[table_id].rows:
                cell = row.cell("Poisson")
                if math.isnan(cell.e) or cell.paper is None:
                    continue
                assert cell.e == pytest.approx(cell.paper.e, rel=0.15)

    def test_adaptive_p_near_one_at_f1_tables(self, all_results):
        for table_id in ("1a", "3a"):
            ours = all_results[table_id].schemes[-1]
            for row in all_results[table_id].rows:
                assert row.cell(ours).p >= 0.98

    def test_static_p_small_at_high_utilization(self, all_results):
        for table_id in ("1a", "3a"):
            for row in all_results[table_id].rows:
                if row.u >= 0.80:
                    assert row.cell("Poisson").p < 0.2
                    assert row.cell("k-f-t").p < 0.2

    def test_u1_rows_are_infeasible_for_static(self, all_results):
        for table_id in ("1b", "3b"):
            for row in all_results[table_id].rows:
                if row.u >= 1.0:
                    assert row.cell("Poisson").p == 0.0
                    assert math.isnan(row.cell("Poisson").e)

    def test_energy_scaling_between_speed_regimes(self, all_results):
        # The paper's f2 energies are ≈4× its f1 static energies.
        e_f1 = all_results["1a"].rows[0].cell("Poisson").e
        e_f2 = all_results["2a"].rows[0].cell("Poisson").e
        assert e_f2 / e_f1 == pytest.approx(4.0, rel=0.15)

    def test_ads_energy_saving_vs_ad_at_f1(self, all_results):
        # Paper table 1(a): A_D_S saves ~5-10% energy vs A_D.
        savings = []
        for row in all_results["1a"].rows:
            ad, ads = row.cell("A_D").e, row.cell("A_D_S").e
            if not math.isnan(ad) and not math.isnan(ads):
                savings.append(1 - ads / ad)
        assert savings
        mean_saving = sum(savings) / len(savings)
        assert 0.02 < mean_saving < 0.20

    def test_adc_energy_saving_vs_ad_at_f1(self, all_results):
        savings = []
        for row in all_results["3a"].rows:
            ad, adc = row.cell("A_D").e, row.cell("A_D_C").e
            if not math.isnan(ad) and not math.isnan(adc):
                savings.append(1 - adc / ad)
        mean_saving = sum(savings) / len(savings)
        assert 0.02 < mean_saving < 0.20

    def test_f2_table_ads_p_advantage_grows_with_u(self, all_results):
        # Paper table 2(a): the P gap A_D_S − A_D widens as U rises
        # within λ=1.4e-3 rows (0.30 → 0.29 → 0.38 → 0.29...): at least
        # the advantage must be substantial at every U ≥ 0.78.
        for row in all_results["2a"].rows:
            if row.lam == 1.4e-3 and row.u >= 0.78:
                gap = row.cell("A_D_S").p - row.cell("A_D").p
                assert gap > 0.1
