"""Executor/analytic parity: the ``fast_static`` contract, made executable.

:class:`~repro.sim.backends.AnalyticCellJob` promises exact mode's
expectation on every field of a static cell.  The closed form and the
event executor share no hot-path code, so agreement over a *randomized*
grid of (scheme, frequency, U, λ, k) cells is strong evidence both are
right — much stronger than the handful of hand-picked cells in
``tests/test_fastpath.py``.

The grid is drawn from a seeded PRNG (reproducible run to run) and the
tolerances are derived from the executor's own confidence intervals at
99.9% — the analytic side has no sampling error of its own.
"""

import math
import random
from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import KFaultTolerantPolicy, PoissonArrivalPolicy
from repro.sim.backends import AnalyticCellJob
from repro.sim.metrics import wilson_interval
from repro.sim.montecarlo import estimate
from repro.sim.parallel import BatchRunner
from repro.sim.task import TaskSpec

DEADLINE = 10_000.0
EXECUTOR_REPS = 1200
ANALYTIC_REPS = 12_000

_POLICIES = {"Poisson": PoissonArrivalPolicy, "k-f-t": KFaultTolerantPolicy}


def _draw_cases(count: int, seed: int = 20060317):
    """A reproducible random grid of static-scheme cells."""
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        frequency = rng.choice([1.0, 2.0])
        u = rng.uniform(0.55, 0.97)
        lam = 10 ** rng.uniform(-4.0, math.log10(2e-3))
        budget = rng.randint(1, 6)
        scheme = rng.choice(["Poisson", "k-f-t"])
        costs = rng.choice(
            [CostModel.scp_favourable(), CostModel.ccp_favourable()]
        )
        task = TaskSpec(
            cycles=round(u * frequency * DEADLINE),
            deadline=DEADLINE,
            fault_budget=budget,
            fault_rate=lam,
            costs=costs,
        )
        cases.append(
            pytest.param(
                task,
                scheme,
                frequency,
                1000 + index,
                id=f"{scheme}-f{frequency:.0f}-U{u:.2f}-lam{lam:.1e}-k{budget}",
            )
        )
    return cases


def _half_width(low: float, high: float) -> float:
    return (high - low) / 2.0


def _analytic(task, policy_factory, reps):
    return BatchRunner().run_cell(
        AnalyticCellJob(task=task, policy_factory=policy_factory, reps=reps)
    )


class TestRandomizedParity:
    @pytest.mark.parametrize("task,scheme,frequency,seed", _draw_cases(6))
    def test_p_and_timely_e_agree(self, task, scheme, frequency, seed):
        policy = _POLICIES[scheme]
        slow = estimate(
            task, partial(policy, frequency), reps=EXECUTOR_REPS, seed=seed
        )
        fast = _analytic(task, partial(policy, frequency), ANALYTIC_REPS)
        assert fast.reps == ANALYTIC_REPS

        # P: the analytic value inside the executor's Wilson interval at
        # 99.9%, plus a small floor for the extreme-P corners.
        low, high = wilson_interval(
            round(slow.p * EXECUTOR_REPS), EXECUTOR_REPS, 0.999
        )
        assert low - 0.01 <= fast.p <= high + 0.01

        # Means: only meaningful when the executor observed a healthy
        # sample.  Its stored intervals are at 95%; scale to ~99.9%
        # (×1.7) and add a 1% relative floor.
        def agree(ours, theirs):
            tolerance = 1.7 * _half_width(theirs.low, theirs.high)
            assert ours == pytest.approx(
                theirs.value, abs=tolerance + 0.01 * abs(theirs.value)
            )

        if slow.energy_timely.count >= 100:
            agree(fast.e, slow.energy_timely)
        agree(fast.energy_all.value, slow.energy_all)
        if fast.p == 0.0:
            assert math.isnan(fast.e) and slow.p == 0.0

    @pytest.mark.parametrize("task,scheme,frequency,seed", _draw_cases(3, seed=77))
    def test_parity_suite_is_reproducible(self, task, scheme, frequency, seed):
        """Same seeds ⇒ same numbers — the suite itself is deterministic."""
        policy = _POLICIES[scheme]
        again = [
            (
                estimate(task, partial(policy, frequency), reps=60, seed=seed),
                _analytic(task, partial(policy, frequency), 500),
            )
            for _ in range(2)
        ]
        assert again[0][0].same_values(again[1][0])
        assert again[0][1].same_values(again[1][1])


class TestFaultFreeParity:
    """λ = 0 removes all randomness: both paths must agree exactly."""

    @pytest.mark.parametrize("frequency", [1.0, 2.0])
    def test_energy_matches_closed_form(self, frequency):
        costs = CostModel.scp_favourable()
        task = TaskSpec(
            cycles=4000.0,
            deadline=DEADLINE,
            fault_budget=3,
            fault_rate=0.0,
            costs=costs,
        )
        job = AnalyticCellJob(
            task=task,
            policy_factory=partial(PoissonArrivalPolicy, frequency),
            reps=50,
        )
        assert job.schedule().interval_lengths == [
            pytest.approx(task.cycles / frequency)
        ]
        fast = BatchRunner().run_cell(job)
        slow = estimate(
            task, partial(PoissonArrivalPolicy, frequency), reps=5, seed=0
        )
        assert fast.p == 1.0 == slow.p
        # One interval closed by one CSCP, no retries anywhere.
        from repro.sim.energy import EnergyModel

        per_cycle = EnergyModel.paper_dmr().segment_energy(frequency, 1.0)
        expected = (task.cycles + costs.checkpoint_cycles) * per_cycle
        assert fast.e == pytest.approx(expected)
        assert slow.e == pytest.approx(expected)
