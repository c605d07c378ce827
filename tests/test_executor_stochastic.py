"""The executor against the closed-form renewal predictions.

These are the strongest end-to-end correctness tests in the suite: the
Monte-Carlo executor must land on the analytic expected completion time
and timely-completion probability of :mod:`repro.core.analysis` for
static schemes.
"""

import math

import pytest

from repro.core.analysis import (
    static_expected_time,
    static_schedule,
    static_timely_probability,
)
from repro.core.checkpoints import CostModel
from repro.sim.executor import simulate_run
from repro.sim.faults import PoissonFaults
from repro.sim.montecarlo import CellAccumulator, run_range
from repro.sim.task import TaskSpec

from tests.conftest import make_fixed_policy

COSTS = CostModel.scp_favourable()


def run_cells(task, interval, reps, seed, frequency=1.0):
    return run_range(
        task,
        lambda: make_fixed_policy(interval_time=interval, frequency=frequency),
        start=0,
        stop=reps,
        seed=seed,
    )


class TestExpectedCompletionTime:
    def test_matches_renewal_sum_uniform(self):
        # 10 intervals of 100 with rate 2e-3: visible fault pressure.
        task = TaskSpec(
            cycles=1000.0,
            deadline=1e9,
            fault_budget=10,
            fault_rate=2e-3,
            costs=COSTS,
        )
        schedule = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        expected = static_expected_time(schedule)
        results = run_cells(task, interval=100.0, reps=4000, seed=11)
        mean = sum(r.finish_time for r in results) / len(results)
        assert mean == pytest.approx(expected, rel=0.02)

    def test_matches_renewal_sum_with_tail(self):
        task = TaskSpec(
            cycles=950.0,
            deadline=1e9,
            fault_budget=10,
            fault_rate=2e-3,
            costs=COSTS,
        )
        schedule = static_schedule(950.0, 300.0, checkpoint_cost=22.0, rate=2e-3)
        expected = static_expected_time(schedule)
        results = run_cells(task, interval=300.0, reps=4000, seed=13)
        mean = sum(r.finish_time for r in results) / len(results)
        assert mean == pytest.approx(expected, rel=0.03)

    def test_speed_two_halves_everything(self):
        task = TaskSpec(
            cycles=1000.0,
            deadline=1e9,
            fault_budget=10,
            fault_rate=1e-3,
            costs=COSTS,
        )
        # At f2: interval time 50, cost 11, same cycle layout.
        schedule = static_schedule(500.0, 50.0, checkpoint_cost=11.0, rate=1e-3)
        expected = static_expected_time(schedule)
        results = run_cells(task, interval=50.0, reps=4000, seed=17, frequency=2.0)
        mean = sum(r.finish_time for r in results) / len(results)
        assert mean == pytest.approx(expected, rel=0.03)


class TestTimelyProbability:
    @pytest.mark.parametrize(
        "deadline,seed",
        [(1500.0, 21), (1400.0, 22), (1350.0, 23)],
    )
    def test_matches_negative_binomial(self, deadline, seed):
        task = TaskSpec(
            cycles=1000.0,
            deadline=deadline,
            fault_budget=10,
            fault_rate=2e-3,
            costs=COSTS,
        )
        schedule = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        expected = static_timely_probability(schedule, deadline)
        results = run_cells(task, interval=100.0, reps=4000, seed=seed)
        p = sum(1 for r in results if r.timely) / len(results)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-6) / 4000)
        assert abs(p - expected) < max(5 * sigma, 0.01)

    def test_paper_poisson_cell_probability(self):
        # Table 1(b) U=0.92, λ=1e-4: published P = 0.3914.
        task = TaskSpec(
            cycles=9200.0,
            deadline=10_000.0,
            fault_budget=1,
            fault_rate=1e-4,
            costs=COSTS,
        )
        interval = math.sqrt(2 * 22 / 1e-4)
        schedule = static_schedule(
            9200.0, interval, checkpoint_cost=22.0, rate=1e-4
        )
        analytic = static_timely_probability(schedule, 10_000.0)
        assert analytic == pytest.approx(0.3914, abs=0.05)
        results = run_cells(task, interval=interval, reps=3000, seed=29)
        p = sum(1 for r in results if r.timely) / len(results)
        assert p == pytest.approx(analytic, abs=0.035)


class TestEnergyConsistency:
    def test_energy_tracks_expected_cycles(self):
        task = TaskSpec(
            cycles=1000.0,
            deadline=1e9,
            fault_budget=10,
            fault_rate=2e-3,
            costs=COSTS,
        )
        schedule = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        expected_time = static_expected_time(schedule)
        results = run_cells(task, interval=100.0, reps=4000, seed=31)
        cell = CellAccumulator().add_all(results).finalize()
        # At f1, energy = 4·cycles = 4·time.
        assert cell.energy_all.value == pytest.approx(4 * expected_time, rel=0.02)

    def test_dual_process_doubles_fault_pressure(self):
        task = TaskSpec(
            cycles=1000.0,
            deadline=1e9,
            fault_budget=10,
            fault_rate=1e-3,
            costs=COSTS,
        )
        single = run_range(
            task,
            lambda: make_fixed_policy(interval_time=100.0),
            start=0,
            stop=3000,
            seed=37,
            faults=PoissonFaults(1e-3),
        )
        from repro.sim.faults import DualPoissonFaults

        dual = run_range(
            task,
            lambda: make_fixed_policy(interval_time=100.0),
            start=0,
            stop=3000,
            seed=37,
            faults=DualPoissonFaults(1e-3),
        )
        schedule = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        expected_dual = static_expected_time(schedule)
        mean_single = sum(r.finish_time for r in single) / len(single)
        mean_dual = sum(r.finish_time for r in dual) / len(dual)
        assert mean_dual == pytest.approx(expected_dual, rel=0.03)
        assert mean_dual > mean_single
