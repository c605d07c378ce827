"""Unit tests for table rendering and shape checks."""

import pytest

from repro.experiments.report import format_table, markdown_table, shape_checks
from tests.conftest import table_result


@pytest.fixture(scope="module")
def table_1a():
    # Enough reps that the headline orderings are stable.
    return table_result("1a", reps=250, seed=12)


@pytest.fixture(scope="module")
def table_2b():
    return table_result("2b", reps=250, seed=12)


class TestFormatTable:
    def test_contains_header_and_schemes(self, table_1a):
        text = format_table(table_1a)
        assert "Table 1a" in text
        for scheme in ("Poisson", "k-f-t", "A_D", "A_D_S"):
            assert scheme in text

    def test_paper_columns_optional(self, table_1a):
        with_paper = format_table(table_1a, show_paper=True)
        without = format_table(table_1a, show_paper=False)
        assert "P paper" in with_paper
        assert "P paper" not in without

    def test_all_rows_rendered(self, table_1a):
        text = format_table(table_1a)
        assert text.count("A_D_S") >= len(table_1a.rows)


class TestMarkdownTable:
    def test_structure(self, table_1a):
        md = markdown_table(table_1a)
        assert md.startswith("### Table 1a")
        assert "| U | λ | scheme |" in md
        # 8 rows × 4 schemes data lines.
        data_lines = [l for l in md.splitlines() if l.startswith("| 0.")]
        assert len(data_lines) == 32

    def test_nan_rendered(self):
        result = table_result("1b", reps=40, seed=3)
        md = markdown_table(result)
        assert "NaN" in md  # U=1.0 static cells


class TestShapeChecks:
    def test_f1_table_passes_at_modest_reps(self, table_1a):
        checks = shape_checks(table_1a)
        failed = [c for c in checks if not c.passed]
        assert not failed, "\n".join(str(c) for c in failed)

    def test_f2_table_passes_at_modest_reps(self, table_2b):
        checks = shape_checks(table_2b)
        failed = [c for c in checks if not c.passed]
        assert not failed, "\n".join(str(c) for c in failed)

    def test_checks_cover_every_row(self, table_1a):
        checks = shape_checks(table_1a)
        assert len(checks) >= 2 * len(table_1a.rows)

    def test_check_stringification(self, table_1a):
        check = shape_checks(table_1a)[0]
        assert "PASS" in str(check) or "FAIL" in str(check)


class TestStatisticalComparators:
    """Unit-level checks of the CI-based shape comparisons."""

    @staticmethod
    def _fake_cell(p, reps, energy=None):
        from repro.experiments.tables import CellResult
        from repro.sim.metrics import MeanEstimate, ProportionEstimate
        from repro.sim.montecarlo import CellEstimate
        import math

        successes = int(round(p * reps))
        energies = [energy] * max(successes, 0) if energy is not None else []
        measured = CellEstimate(
            p_timely=ProportionEstimate.from_counts(successes, reps),
            energy_timely=MeanEstimate.from_values(energies),
            energy_all=MeanEstimate.from_values(energies or [0.0]),
            mean_finish_time_timely=math.nan,
            mean_detected_faults=0.0,
            mean_checkpoints=1.0,
            mean_sub_checkpoints=0.0,
            reps=reps,
        )
        return CellResult(scheme="x", measured=measured, paper=None)

    def test_p_not_below_tolerates_noise_at_low_reps(self):
        from repro.experiments.report import _p_not_below

        a = self._fake_cell(0.55, 80)
        b = self._fake_cell(0.65, 80)
        assert _p_not_below(a, b)  # gap is within 80-rep noise

    def test_p_not_below_rejects_clear_gap_at_high_reps(self):
        from repro.experiments.report import _p_not_below

        a = self._fake_cell(0.55, 10_000)
        b = self._fake_cell(0.65, 10_000)
        assert not _p_not_below(a, b)

    def test_e_not_above_handles_nan(self):
        from repro.experiments.report import _e_not_above

        a = self._fake_cell(0.0, 50)  # no timely runs → NaN energy
        b = self._fake_cell(0.5, 50, energy=100.0)
        assert _e_not_above(a, b)
        assert _e_not_above(b, a)

    def test_e_not_above_detects_significant_excess(self):
        from repro.experiments.report import _e_not_above

        # Zero-variance energies: intervals collapse to points.
        a = self._fake_cell(1.0, 100, energy=200.0)
        b = self._fake_cell(1.0, 100, energy=100.0)
        assert not _e_not_above(a, b)
        assert _e_not_above(b, a)
