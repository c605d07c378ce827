"""Unit tests for the Monte-Carlo harness."""

import math

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import AdaptiveSCPPolicy, PoissonArrivalPolicy
from repro.errors import ParameterError
from repro.sim.montecarlo import CellAccumulator, estimate, run_range
from repro.sim.task import TaskSpec

from tests.conftest import make_fixed_policy


@pytest.fixture
def task():
    return TaskSpec(
        cycles=1000.0,
        deadline=2000.0,
        fault_budget=5,
        fault_rate=1e-3,
        costs=CostModel.scp_favourable(),
    )


def runs(task, *, stop, seed):
    return run_range(
        task, lambda: PoissonArrivalPolicy(1.0), start=0, stop=stop, seed=seed
    )


class TestRunRange:
    def test_reproducible_with_seed(self, task):
        a = runs(task, stop=50, seed=9)
        b = runs(task, stop=50, seed=9)
        assert [r.finish_time for r in a] == [r.finish_time for r in b]
        assert [r.energy for r in a] == [r.energy for r in b]

    def test_different_seed_differs(self, task):
        a = runs(task, stop=50, seed=1)
        b = runs(task, stop=50, seed=2)
        assert [r.finish_time for r in a] != [r.finish_time for r in b]

    def test_prefix_stability(self, task):
        # Growing the range must not change earlier runs.
        short = runs(task, stop=20, seed=3)
        long = runs(task, stop=40, seed=3)
        assert [r.finish_time for r in short] == [
            r.finish_time for r in long[:20]
        ]

    def test_shards_concatenate_to_one_range(self, task):
        whole = runs(task, stop=30, seed=6)
        shards = runs(task, stop=13, seed=6) + run_range(
            task, lambda: PoissonArrivalPolicy(1.0), start=13, stop=30, seed=6
        )
        assert [repr(r) for r in shards] == [repr(r) for r in whole]

    def test_empty_range(self, task):
        assert run_range(task, AdaptiveSCPPolicy, start=4, stop=4) == []

    def test_rejects_bad_range(self, task):
        for start, stop in [(-1, 3), (5, 3)]:
            with pytest.raises(ParameterError):
                run_range(task, AdaptiveSCPPolicy, start=start, stop=stop)


class TestEstimate:
    def test_rejects_zero_reps(self, task):
        with pytest.raises(ParameterError):
            estimate(task, AdaptiveSCPPolicy, reps=0)

    @pytest.mark.parametrize(
        "reps, seed", [(2.5, 0), (True, 0), (40, 2.7), (40, True), (40, -1)]
    )
    def test_rejects_non_integer_reps_and_seed(self, task, reps, seed):
        # Truncating would run another study: seed=2.7 would be seed 2's
        # estimate and reps=True one rep.
        with pytest.raises(ParameterError, match="reps|seed"):
            estimate(task, AdaptiveSCPPolicy, reps=reps, seed=seed)

    def test_fields_populated(self, task):
        cell = estimate(task, AdaptiveSCPPolicy, reps=100, seed=5)
        assert 0.0 <= cell.p <= 1.0
        assert cell.reps == 100
        assert cell.p_timely.low <= cell.p <= cell.p_timely.high
        assert cell.mean_checkpoints > 0

    def test_energy_nan_when_never_timely(self):
        # U = 1 at f1 with any overhead: impossible (the paper's NaN cells).
        task = TaskSpec(
            cycles=10_000.0,
            deadline=10_000.0,
            fault_budget=1,
            fault_rate=1e-4,
            costs=CostModel.scp_favourable(),
        )
        cell = estimate(
            task, lambda: PoissonArrivalPolicy(1.0), reps=50, seed=0
        )
        assert cell.p == 0.0
        assert math.isnan(cell.e)
        assert not math.isnan(cell.energy_all.value)

    def test_deterministic_task_probability_one(self):
        task = TaskSpec(
            cycles=100.0,
            deadline=1000.0,
            fault_budget=1,
            fault_rate=0.0,
            costs=CostModel.scp_favourable(),
        )
        cell = estimate(
            task, lambda: make_fixed_policy(interval_time=100.0), reps=20, seed=0
        )
        assert cell.p == 1.0
        assert cell.e == pytest.approx(4 * 122.0)
        assert cell.energy_all.value == pytest.approx(cell.e)
        assert cell.mean_finish_time_timely == pytest.approx(122.0)


class TestCellAccumulator:
    def test_counts(self, task):
        results = runs(task, stop=30, seed=4)
        cell = CellAccumulator().add_all(results).finalize()
        timely = sum(1 for r in results if r.timely)
        assert cell.p == pytest.approx(timely / 30)
        assert cell.reps == 30
