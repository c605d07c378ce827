"""Unit tests for the closed-form analysis module."""

import math

import pytest

from repro.core.analysis import (
    expected_time_with_subdivision,
    static_expected_time,
    static_schedule,
    static_timely_probability,
)
from repro.core.renewal import cscp_interval_time, scp_interval_time_for_m
from repro.errors import ParameterError


class TestStaticSchedule:
    def test_uniform_split(self):
        schedule = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=1e-3)
        assert schedule.n_intervals == 10
        assert all(l == 100.0 for l in schedule.interval_lengths)
        assert schedule.work == pytest.approx(1000.0)

    def test_tail_interval(self):
        schedule = static_schedule(950.0, 300.0, checkpoint_cost=22.0, rate=1e-3)
        assert schedule.interval_lengths == [300.0, 300.0, 300.0, 50.0]

    def test_interval_larger_than_work(self):
        schedule = static_schedule(80.0, 300.0, checkpoint_cost=22.0, rate=1e-3)
        assert schedule.interval_lengths == [80.0]

    def test_validation(self):
        with pytest.raises(ParameterError):
            static_schedule(0.0, 100.0, checkpoint_cost=22.0, rate=1e-3)
        with pytest.raises(ParameterError):
            static_schedule(100.0, 0.0, checkpoint_cost=22.0, rate=1e-3)


class TestStaticExpectedTime:
    def test_sums_per_interval_renewals(self):
        schedule = static_schedule(200.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        per = cscp_interval_time(100.0, rate=2e-3, store=0.0, compare=22.0)
        assert static_expected_time(schedule) == pytest.approx(2 * per)

    def test_zero_rate_is_deterministic(self):
        schedule = static_schedule(500.0, 100.0, checkpoint_cost=22.0, rate=0.0)
        assert static_expected_time(schedule) == pytest.approx(500 + 5 * 22)

    def test_rollback_term_counts_faults(self):
        with_rb = static_schedule(
            100.0, 100.0, checkpoint_cost=22.0, rate=1e-2, rollback_cost=7.0
        )
        without = static_schedule(100.0, 100.0, checkpoint_cost=22.0, rate=1e-2)
        delta = static_expected_time(with_rb) - static_expected_time(without)
        assert delta == pytest.approx(7.0 * math.expm1(1e-2 * 100.0))


class TestStaticTimelyProbability:
    def test_certain_when_no_faults(self):
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=0.0)
        assert static_timely_probability(schedule, 1000.0) == pytest.approx(1.0)

    def test_zero_when_fault_free_time_exceeds_deadline(self):
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=1e-3)
        # Fault-free completion needs 144 > 120.
        assert static_timely_probability(schedule, 120.0) == 0.0

    def test_zero_deadline(self):
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=1e-3)
        assert static_timely_probability(schedule, 0.0) == 0.0

    @pytest.mark.parametrize("work", [100.0, 105.0], ids=["uniform", "tail"])
    def test_zero_when_success_probability_underflows(self, work):
        # exp(-100·10) underflows to 0: no attempt can succeed, so both
        # the negative-binomial path (uniform) and the DP (tail) give 0.
        schedule = static_schedule(work, 10.0, checkpoint_cost=1.0, rate=100.0)
        assert static_timely_probability(schedule, 1000.0) == 0.0

    def test_zero_failures_case_is_success_probability(self):
        # Deadline admits exactly the fault-free schedule: P = e^{-λ·work}.
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=2e-3)
        p = static_timely_probability(schedule, 144.0)
        assert p == pytest.approx(math.exp(-2e-3 * 100.0))

    def test_one_affordable_failure(self):
        # Deadline 144 + 72 allows exactly one failed attempt.
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=2e-3)
        p0 = math.exp(-2e-3 * 50.0)
        expected = p0**2 + 2 * p0**2 * (1 - p0)  # NB(2, p): F ≤ 1
        assert static_timely_probability(schedule, 216.0) == pytest.approx(expected)

    def test_monotone_in_deadline(self):
        schedule = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        ps = [
            static_timely_probability(schedule, d)
            for d in (1220.0, 1300.0, 1500.0, 2000.0, 5000.0)
        ]
        assert ps == sorted(ps)
        assert ps[-1] > 0.99

    def test_dp_path_matches_uniform_path_when_uniform(self):
        # Force the DP by a microscopic length perturbation; results
        # must agree with the negative-binomial closed form.
        uniform = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        p_closed = static_timely_probability(uniform, 1600.0)
        from repro.core.analysis import _timely_probability_dp

        p_dp = _timely_probability_dp(uniform, 1600.0)
        assert p_dp == pytest.approx(p_closed, rel=1e-9)

    def test_tail_layout_uses_dp(self):
        schedule = static_schedule(950.0, 300.0, checkpoint_cost=22.0, rate=1e-3)
        p = static_timely_probability(schedule, 1500.0)
        assert 0.0 < p < 1.0


class TestExpectedTimeWithSubdivision:
    def test_scales_linearly_in_intervals(self):
        one = expected_time_with_subdivision(
            1, 200.0, m=4, kind="scp", rate=2e-3, store=2.0, compare=20.0
        )
        five = expected_time_with_subdivision(
            5, 200.0, m=4, kind="scp", rate=2e-3, store=2.0, compare=20.0
        )
        assert five == pytest.approx(5 * one)

    def test_matches_renewal_model(self):
        value = expected_time_with_subdivision(
            3, 200.0, m=4, kind="scp", rate=2e-3, store=2.0, compare=20.0
        )
        per = scp_interval_time_for_m(
            4, span=200.0, rate=2e-3, store=2.0, compare=20.0
        )
        assert value == pytest.approx(3 * per)

    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            expected_time_with_subdivision(
                1, 200.0, m=4, kind="bogus", rate=2e-3, store=2.0, compare=20.0
            )

    def test_n_validation(self):
        with pytest.raises(ParameterError):
            expected_time_with_subdivision(
                0, 200.0, m=4, kind="scp", rate=2e-3, store=2.0, compare=20.0
            )
