"""Unit tests for table and row studies (reduced reps)."""

import math

import pytest

from repro.api import Study, StudySpec
from repro.errors import ConfigurationError
from repro.experiments.config import table_spec
from tests.conftest import table_result


@pytest.fixture(scope="module")
def small_table():
    return table_result("1a", reps=60, seed=99)


class TestRunTable:
    def test_all_rows_and_schemes_present(self, small_table):
        spec = table_spec("1a")
        assert len(small_table.rows) == len(spec.rows)
        for row in small_table.rows:
            assert set(row.cells) == set(spec.schemes)

    def test_paper_cells_attached(self, small_table):
        cell = small_table.rows[0].cell("Poisson")
        assert cell.paper is not None
        assert cell.paper.p == 0.1185

    def test_reproducible(self):
        a = table_result("1b", reps=30, seed=7)
        b = table_result("1b", reps=30, seed=7)
        for row_a, row_b in zip(a.rows, b.rows):
            for scheme in a.schemes:
                assert row_a.cell(scheme).p == row_b.cell(scheme).p
                ea, eb = row_a.cell(scheme).e, row_b.cell(scheme).e
                assert (math.isnan(ea) and math.isnan(eb)) or ea == eb

    def test_result_carries_the_registry_spec(self):
        result = table_result("2b", reps=20, seed=1)
        assert result.spec is table_spec("2b")

    def test_row_lookup(self, small_table):
        row = small_table.row(0.76, 1.4e-3)
        assert row.u == 0.76
        with pytest.raises(ConfigurationError):
            small_table.row(0.5, 1.0)

    def test_cell_error_metrics(self, small_table):
        cell = small_table.rows[0].cell("A_D_S")
        assert not math.isnan(cell.p_error)
        # e_ratio NaN only if our E is NaN (possible at tiny reps for
        # near-zero-P static cells, but not for the adaptive scheme).
        assert cell.e_ratio == pytest.approx(cell.e / cell.paper.e)

    def test_unknown_scheme_lookup_rejected(self, small_table):
        with pytest.raises(ConfigurationError):
            small_table.rows[0].cell("bogus")


def _row(table, u, lam):
    """A 30-rep row study at seed 5: scheme → estimate."""
    results = Study(
        StudySpec(kind="row", table=table, u=u, lam=lam, reps=30, seed=5)
    ).run()
    return {record.axes["scheme"]: record.estimate for record in results}


class TestRunRow:
    def test_single_row(self):
        row = _row("3b", 0.92, 1e-4)
        assert set(row) == {"Poisson", "k-f-t", "A_D", "A_D_C"}

    def test_different_cells_get_independent_streams(self):
        row = _row("1a", 0.76, 1.4e-3)
        # Poisson and k-f-t see different fault realisations (they have
        # nearly identical intervals, so identical streams would give
        # identical P with high probability across many reps).
        p_a = row["Poisson"]
        p_b = row["k-f-t"]
        assert (
            p_a.mean_finish_time_timely != p_b.mean_finish_time_timely
            or p_a.p != p_b.p
        )
