"""Tests for the TMR, multi-speed and secure-checkpointing extensions."""

import math

import pytest

from repro.core.checkpoints import CostModel
from repro.core.renewal import cscp_interval_time
from repro.core.schemes import AdaptiveCCPPolicy, AdaptiveDVSPolicy, AdaptiveSCPPolicy
from repro.errors import ParameterError
from repro.extensions.multi_speed import (
    compare_ladders,
    paper_ladder,
    uniform_ladder,
)
from repro.extensions.security import secure_cost_model, security_sweep
from repro.extensions.tmr import (
    simulate_tmr_run,
    tmr_interval_time,
    tmr_success_probability,
)
from repro.sim.faults import DualPoissonFaults
from repro.sim.montecarlo import run_many, summarize
from repro.sim.rng import RandomSource
from repro.sim.task import TaskSpec

COSTS = CostModel.scp_favourable()


def make_task(**overrides):
    params = dict(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=COSTS,
    )
    params.update(overrides)
    return TaskSpec(**params)


class TestTMRAnalysis:
    def test_success_probability_formula(self):
        p = math.exp(-1e-3 * 100.0)
        assert tmr_success_probability(100.0, 1e-3) == pytest.approx(
            p * p * (3 - 2 * p)
        )

    def test_success_probability_bounds(self):
        assert tmr_success_probability(0.0, 1e-3) == 1.0
        assert 0.0 < tmr_success_probability(1e4, 1e-3) < 1.0

    def test_tmr_beats_dmr_per_interval(self):
        # Same per-processor rate: TMR's masking makes the interval
        # cheaper in expectation than DMR's 2λ divergence.
        span, rate = 200.0, 1.4e-3
        tmr = tmr_interval_time(span, rate_per_processor=rate, cost=22.0)
        dmr = cscp_interval_time(span, rate=2 * rate, store=2.0, compare=20.0)
        assert tmr < dmr

    def test_interval_time_monotone_in_rate(self):
        low = tmr_interval_time(200.0, rate_per_processor=1e-4, cost=22.0)
        high = tmr_interval_time(200.0, rate_per_processor=1e-2, cost=22.0)
        assert high > low

    def test_rollback_term(self):
        base = tmr_interval_time(200.0, rate_per_processor=1e-3, cost=22.0)
        with_rb = tmr_interval_time(
            200.0, rate_per_processor=1e-3, cost=22.0, rollback=5.0
        )
        q = tmr_success_probability(200.0, 1e-3)
        assert with_rb - base == pytest.approx(5.0 * (1 / q - 1))

    def test_validation(self):
        with pytest.raises(ParameterError):
            tmr_interval_time(0.0, rate_per_processor=1e-3, cost=22.0)
        with pytest.raises(ParameterError):
            tmr_success_probability(-1.0, 1e-3)


class TestTMRSimulation:
    def test_masks_single_faults(self):
        # Moderate per-processor rate: DMR would roll back often; TMR
        # should mask most single-processor faults.
        task = make_task(fault_rate=1e-3)
        rollbacks = 0
        injected = 0
        timely = 0
        reps = 150
        for i in range(reps):
            result = simulate_tmr_run(
                task, AdaptiveDVSPolicy(), rng=RandomSource(17).substream(i)
            )
            timely += result.timely
            rollbacks += result.rollbacks
            injected += result.injected_faults
        assert timely / reps > 0.95
        # Most faults are outvoted: only coincident two-processor
        # corruption forces a rollback.
        assert rollbacks < 0.25 * injected

    def test_energy_uses_three_processors(self):
        task = make_task(fault_rate=0.0)
        result = simulate_tmr_run(
            task, AdaptiveDVSPolicy(), rng=RandomSource(3).generator()
        )
        # Fault-free at f1: energy = 3 proc · 2 · cycles.
        assert result.energy == pytest.approx(6 * result.cycles_executed)

    def test_voting_vs_dmr_comparison(self):
        # Same per-processor rate: TMR voting rolls back far less often
        # than DMR comparison, at a visible energy premium.
        rate, reps = 1.4e-3, 200
        task = make_task(fault_rate=rate)
        dmr = summarize(
            run_many(
                task,
                AdaptiveDVSPolicy,
                reps=reps,
                seed=47,
                faults=DualPoissonFaults(rate),
            )
        )
        tmr = [
            simulate_tmr_run(
                task,
                AdaptiveDVSPolicy(),
                rate_per_processor=rate,
                rng=RandomSource(48).substream(i),
            )
            for i in range(reps)
        ]
        tmr_rollbacks = sum(r.rollbacks for r in tmr) / reps
        timely_energy = [r.energy for r in tmr if r.timely]
        assert tmr_rollbacks < 0.5 * dmr.mean_detected_faults
        assert sum(timely_energy) / len(timely_energy) > dmr.e

    def test_ccp_subdivision_supported(self):
        task = make_task(costs=CostModel.ccp_favourable(), fault_rate=1e-3)
        result = simulate_tmr_run(
            task, AdaptiveCCPPolicy(), rng=RandomSource(5).generator()
        )
        assert result.completed

    def test_scp_subdivision_rejected(self):
        task = make_task(fault_rate=1.4e-3)
        with pytest.raises(ParameterError):
            simulate_tmr_run(
                task, AdaptiveSCPPolicy(), rng=RandomSource(7).generator()
            )

    def test_double_fault_rolls_back(self):
        # Astronomic rate: two processors always diverge per interval.
        task = make_task(cycles=500.0, deadline=1e6, fault_rate=0.05)
        result = simulate_tmr_run(
            task,
            AdaptiveDVSPolicy(),
            rate_per_processor=0.05,
            rng=RandomSource(11).generator(),
        )
        assert result.rollbacks > 0


class TestMultiSpeed:
    def test_uniform_ladder_endpoints(self):
        ladder = uniform_ladder(4)
        assert ladder.frequencies[0] == 1.0
        assert ladder.frequencies[-1] == 2.0
        assert ladder.frequencies == pytest.approx((1.0, 4 / 3, 5 / 3, 2.0))

    def test_two_levels_is_paper_ladder(self):
        assert uniform_ladder(2).frequencies == paper_ladder().frequencies

    def test_validation(self):
        with pytest.raises(ParameterError):
            uniform_ladder(1)
        with pytest.raises(ParameterError):
            uniform_ladder(3, f_max=1.0)

    def test_finer_ladder_saves_energy_on_tight_task(self):
        # U=0.92 at f1 is infeasible: the 2-level ladder must jump to
        # f2; a 4-level ladder settles near 1.33.
        task = make_task(cycles=9_200.0, fault_rate=1e-4, fault_budget=1)
        comparison = compare_ladders(
            task,
            {"2-level": paper_ladder(), "4-level": uniform_ladder(4)},
            reps=120,
            seed=23,
        )
        saving = comparison.energy_saving_vs("2-level", "4-level")
        assert saving > 0.10
        assert comparison.results["4-level"].p >= 0.9

    def test_empty_ladders_rejected(self):
        with pytest.raises(ParameterError):
            compare_ladders(make_task(), {}, reps=10, seed=0)


class TestSecurity:
    def test_secure_cost_model_inflates(self):
        secured = secure_cost_model(COSTS, mac_cycles=30.0, verify_cycles=5.0)
        assert secured.store_cycles == 32.0
        assert secured.compare_cycles == 25.0
        assert secured.rollback_cycles == COSTS.rollback_cycles

    def test_negative_costs_rejected(self):
        with pytest.raises(ParameterError):
            secure_cost_model(COSTS, mac_cycles=-1.0)

    def test_sweep_shifts_optimum_down(self):
        # Heavier stores → fewer SCPs per interval.
        task = make_task()
        points = security_sweep(
            task, mac_grid=[0.0, 20.0, 80.0], interval=200.0, reps=60, seed=1
        )
        ms = [p.optimal_m for p in points]
        assert ms[0] >= ms[-1]
        assert ms[0] > 1  # unsecured optimum subdivides

    def test_sweep_costs_energy(self):
        task = make_task()
        points = security_sweep(
            task, mac_grid=[0.0, 80.0], interval=200.0, reps=120, seed=2
        )
        assert points[1].e >= points[0].e * 0.99  # roughly monotone

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            security_sweep(make_task(), mac_grid=[], reps=10, seed=0)
