"""Unit tests for the five checkpointing scheme policies."""

import math

import pytest

from repro.core.checkpoints import CheckpointKind, CostModel
from repro.core.dvs import SpeedLadder
from repro.core.intervals import checkpoint_interval, k_fault_interval, poisson_interval
from repro.core.optimizer import num_ccp, num_scp
from repro.core.schemes import (
    SCHEMES,
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
    KFaultTolerantPolicy,
    Plan,
    PoissonArrivalPolicy,
    scheme_factory,
)
from repro.errors import ConfigurationError, ParameterError
from repro.sim.state import ExecutionState
from repro.sim.task import TaskSpec


def make_task(**overrides):
    params = dict(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=CostModel.scp_favourable(),
    )
    params.update(overrides)
    return TaskSpec(**params)


def started(policy, task):
    state = ExecutionState.fresh(task)
    policy.start(state)
    return state


class TestPlan:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Plan(interval_time=0.0, m=1, sub_kind=CheckpointKind.CSCP)
        with pytest.raises(ParameterError):
            Plan(interval_time=10.0, m=0, sub_kind=CheckpointKind.CSCP)


class TestPoissonArrivalPolicy:
    def test_interval_is_i1(self):
        task = make_task()
        policy = PoissonArrivalPolicy(1.0)
        state = started(policy, task)
        plan = policy.plan(state)
        assert plan.interval_time == pytest.approx(
            poisson_interval(22.0, task.fault_rate)
        )
        assert plan.m == 1
        assert state.frequency == 1.0

    def test_interval_scales_with_frequency(self):
        task = make_task()
        slow = PoissonArrivalPolicy(1.0)
        fast = PoissonArrivalPolicy(2.0)
        plan_slow = slow.plan(started(slow, task))
        plan_fast = fast.plan(started(fast, task))
        # C halves at f2 → interval shrinks by sqrt(2).
        assert plan_fast.interval_time == pytest.approx(
            plan_slow.interval_time / math.sqrt(2)
        )

    def test_zero_rate_single_checkpoint(self):
        task = make_task(fault_rate=0.0)
        policy = PoissonArrivalPolicy(1.0)
        plan = policy.plan(started(policy, task))
        assert plan.interval_time == pytest.approx(task.cycles)

    def test_never_replans(self):
        task = make_task()
        policy = PoissonArrivalPolicy(1.0)
        state = started(policy, task)
        before = policy.plan(state)
        state.faults_left -= 1
        policy.on_fault(state)
        assert policy.plan(state) is before

    def test_rejects_bad_frequency(self):
        with pytest.raises(ParameterError):
            PoissonArrivalPolicy(0.0)


class TestKFaultTolerantPolicy:
    def test_interval_is_i2(self):
        task = make_task()
        policy = KFaultTolerantPolicy(1.0)
        plan = policy.plan(started(policy, task))
        assert plan.interval_time == pytest.approx(
            k_fault_interval(7600.0, 5, 22.0)
        )

    def test_zero_budget_single_checkpoint(self):
        task = make_task(fault_budget=0)
        policy = KFaultTolerantPolicy(1.0)
        plan = policy.plan(started(policy, task))
        assert plan.interval_time == pytest.approx(task.cycles)


class TestAdaptiveDVSPolicy:
    def test_speed_selection_start_low_when_feasible(self):
        task = make_task(cycles=5_000.0, fault_rate=1e-4)
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        assert state.frequency == 1.0

    def test_speed_selection_start_high_when_tight(self):
        # Table 1(b) U=0.92: t_est(f1) > D.
        task = make_task(cycles=9_200.0, fault_rate=1e-4, fault_budget=1)
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        assert state.frequency == 2.0

    def test_interval_matches_procedure(self):
        task = make_task(cycles=5_000.0, fault_rate=1e-4)
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        plan = policy.plan(state)
        expected = checkpoint_interval(
            10_000.0, 5_000.0, 22.0, 5.0, 1e-4
        )
        assert plan.interval_time == pytest.approx(expected)
        assert plan.m == 1
        assert plan.sub_kind is CheckpointKind.CSCP

    def test_replans_on_fault(self):
        task = make_task(cycles=5_000.0, fault_rate=1e-4)
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        before = policy.plan(state)
        # Simulate progress then a fault.
        state.clock = 2_000.0
        state.remaining_cycles = 4_000.0
        state.faults_left -= 1
        policy.on_fault(state)
        after = policy.plan(state)
        assert after is not before
        expected = checkpoint_interval(8_000.0, 4_000.0, 22.0, 4.0, 1e-4)
        assert after.interval_time == pytest.approx(expected)

    def test_speed_can_escalate_on_fault(self):
        task = make_task(cycles=9_000.0, fault_rate=1e-4, fault_budget=1)
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        assert state.frequency == 1.0
        # A late fault leaves too little time at f1.
        state.clock = 8_000.0
        state.remaining_cycles = 5_000.0
        state.faults_left = 0
        policy.on_fault(state)
        assert state.frequency == 2.0

    def test_speed_can_deescalate_when_slack_returns(self):
        # Paper fig. 6 line 15 re-evaluates t_est(Rc, f1) ≤ Rd afresh.
        task = make_task(cycles=9_200.0, fault_rate=1e-4, fault_budget=1)
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        assert state.frequency == 2.0
        state.clock = 1_000.0
        state.remaining_cycles = 7_200.0
        policy.on_fault(state)
        assert state.frequency == 1.0

    def test_survives_overshot_deadline(self):
        task = make_task()
        policy = AdaptiveDVSPolicy()
        state = started(policy, task)
        state.clock = 11_000.0  # past the deadline
        state.remaining_cycles = 100.0
        policy.on_fault(state)  # must not raise
        assert policy.plan(state).interval_time > 0


class TestAdaptiveSCPPolicy:
    def test_m_matches_num_scp(self):
        task = make_task()
        policy = AdaptiveSCPPolicy()
        state = started(policy, task)
        plan = policy.plan(state)
        frequency = state.frequency
        expected_interval = checkpoint_interval(
            10_000.0,
            7600.0 / frequency,
            22.0 / frequency,
            5.0,
            task.fault_rate,
        )
        expected_m = num_scp(
            expected_interval,
            rate=task.fault_rate,  # default analysis_rate_factor = 1.0
            store=2.0 / frequency,
            compare=20.0 / frequency,
            rollback=0.0,
        ).m
        assert plan.interval_time == pytest.approx(expected_interval)
        assert plan.m == expected_m
        assert plan.sub_kind is CheckpointKind.SCP

    def test_subdivides_at_paper_parameters(self):
        task = make_task()
        policy = AdaptiveSCPPolicy()
        plan = policy.plan(started(policy, task))
        assert plan.m > 1

    def test_analysis_rate_factor_enters_model(self):
        task = make_task()
        one = AdaptiveSCPPolicy(AdaptiveConfig(analysis_rate_factor=1.0))
        two = AdaptiveSCPPolicy(AdaptiveConfig(analysis_rate_factor=2.0))
        m1 = one.plan(started(one, task)).m
        m2 = two.plan(started(two, task)).m
        # Doubling the modelled rate pushes toward more stores.
        assert m2 >= m1

    def test_custom_ladder(self):
        ladder = SpeedLadder.from_frequencies((1.0, 1.5, 2.0))
        task = make_task(cycles=9_200.0, fault_rate=1e-4, fault_budget=1)
        policy = AdaptiveSCPPolicy(AdaptiveConfig(ladder=ladder))
        state = started(policy, task)
        assert state.frequency == 1.5  # intermediate speed suffices


class TestAdaptiveCCPPolicy:
    def test_m_matches_num_ccp(self):
        task = make_task(costs=CostModel.ccp_favourable())
        policy = AdaptiveCCPPolicy()
        state = started(policy, task)
        plan = policy.plan(state)
        frequency = state.frequency
        expected_interval = checkpoint_interval(
            10_000.0,
            7600.0 / frequency,
            22.0 / frequency,
            5.0,
            task.fault_rate,
        )
        expected_m = num_ccp(
            expected_interval,
            rate=task.fault_rate,
            store=20.0 / frequency,
            compare=2.0 / frequency,
            rollback=0.0,
        ).m
        assert plan.m == expected_m
        assert plan.sub_kind is CheckpointKind.CCP


class TestAdaptiveConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AdaptiveConfig(analysis_rate_factor=0.0)
        with pytest.raises(ParameterError):
            AdaptiveConfig(max_m=0)


class TestSchemeFactory:
    def test_names_are_the_paper_columns(self):
        assert list(SCHEMES) == ["Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C"]
        for name, cls in SCHEMES.items():
            assert cls.name == name

    def test_static_schemes_take_the_frequency(self):
        factory = scheme_factory("k-f-t", frequency=2.0)
        assert (factory.func, factory.args) == (KFaultTolerantPolicy, (2.0,))
        assert factory().frequency == 2.0

    def test_adaptive_schemes_take_the_config(self):
        config = AdaptiveConfig(analysis_rate_factor=2.0)
        factory = scheme_factory("A_D_C", frequency=2.0, config=config)
        assert (factory.func, factory.args) == (AdaptiveCCPPolicy, (config,))
        assert scheme_factory("A_D")().config == AdaptiveConfig()

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_factories_pickle(self, name):
        import pickle

        policy = pickle.loads(pickle.dumps(scheme_factory(name)))()
        assert type(policy) is SCHEMES[name]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme 'B_A_D'"):
            scheme_factory("B_A_D")
