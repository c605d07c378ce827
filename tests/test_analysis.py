"""Unit tests for the closed-form analysis module."""

import dataclasses
import functools
import math

import pytest
from scipy.stats import nbinom

from repro.core.analysis import (
    expected_time_with_subdivision,
    static_expected_time,
    static_outcome,
    static_schedule,
    static_timely_probability,
)
from repro.core.renewal import cscp_interval_time, scp_interval_time_for_m
from repro.errors import ParameterError
from repro.experiments.config import all_table_specs
from repro.sim.executor import simulate_run
from repro.sim.faults import ScriptedFaults


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

    def test_residue_below_executor_epsilon_is_no_interval(self):
        # 36 intervals leave 3.2e-12 of work, which the executor counts
        # as done: it runs this task fault-free with 36 checkpoints and
        # finishes at 11037.82, so a deadline 1 later is certainly met.
        schedule = static_schedule(
            10245.824833404884, 284.6062453723579, checkpoint_cost=22.0, rate=0.0
        )
        assert schedule.n_intervals == 36
        assert static_expected_time(schedule) == pytest.approx(11037.824833404884)
        assert static_timely_probability(schedule, 11038.82) == 1.0

    def test_every_table_cell_layout_matches_the_executor(self):
        # The layout of every static cell of Tables 1-4 against the
        # executor's fault-free run of the same policy (a deadline that
        # cannot bind, so nothing is abandoned).
        for spec in all_table_specs():
            for u, lam in spec.rows:
                for scheme in ("Poisson", "k-f-t"):
                    job = spec.cell_job(
                        u, lam, scheme, reps=1, seed=0, fast_static=True
                    )
                    schedule = job.schedule()
                    task = dataclasses.replace(job.task, deadline=1e9)
                    run = simulate_run(
                        task, job.policy_factory(), ScriptedFaults(())
                    )
                    where = f"{spec.table_id} {u} {lam} {scheme}"
                    assert run.checkpoints == schedule.n_intervals, where
                    finish = sum(
                        length + schedule.checkpoint_cost
                        for length in schedule.interval_lengths
                    )
                    assert run.finish_time == pytest.approx(finish, abs=1e-9), where


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
        # On equal intervals the total time is (n + F)·(L + C) with F
        # failed attempts ~ NegBin(n, e^{-λL}): scipy's CDF at the
        # affordable failures is an independent reference.
        uniform = static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3)
        for deadline in (1220.0, 1300.0, 1600.0, 2000.0, 3000.0):
            allowed = math.floor((deadline - 10 * 122.0) / 122.0)
            expected = nbinom.cdf(allowed, 10, math.exp(-2e-3 * 100.0))
            assert static_timely_probability(uniform, deadline) == pytest.approx(
                expected, rel=1e-9
            )

    def test_tail_layout_uses_dp(self):
        schedule = static_schedule(950.0, 300.0, checkpoint_cost=22.0, rate=1e-3)
        p = static_timely_probability(schedule, 1500.0)
        assert 0.0 < p < 1.0


def _reference_outcome(schedule, deadline):
    """Every field of :func:`static_outcome` by backward recursion.

    An independent formulation: the expectation from a state (next
    interval, failed attempts per interval length) is the mix of its
    success and failure successors, and the executor's abandon check
    and timely rule end the recursion.
    """
    lengths = schedule.interval_lengths
    cost, rollback = schedule.checkpoint_cost, schedule.rollback_cost
    n = len(lengths)

    @functools.lru_cache(maxsize=None)
    def value(j, failures):
        fails = dict(failures)
        clock = sum(length + cost for length in lengths[:j]) + sum(
            count * (length + cost + rollback) for length, count in fails.items()
        )
        tally = sum(fails.values())
        if j == n:
            timely = 1.0 if clock <= deadline + 1e-9 else 0.0
            return (timely, timely * clock, clock, tally, j + tally)
        if sum(lengths[j:]) > deadline - clock:
            return (0.0, 0.0, clock, tally, j + tally)
        length = lengths[j]
        p = math.exp(-schedule.rate * length)
        fails[length] = fails.get(length, 0) + 1
        success = value(j + 1, failures) if p > 0.0 else (0.0,) * 5
        failure = value(j, tuple(sorted(fails.items()))) if p < 1.0 else (0.0,) * 5
        return tuple(p * a + (1.0 - p) * b for a, b in zip(success, failure))

    p_timely, finish, end, faults, checkpoints = value(0, ())
    return p_timely, (finish / p_timely if p_timely else math.nan), end, faults, checkpoints


class TestStaticOutcome:
    @pytest.mark.parametrize(
        "work,interval,kwargs,deadline",
        [
            (1000.0, 100.0, dict(rate=2e-3), 1300.0),
            (1000.0, 100.0, dict(rate=2e-3), 1600.0),
            (950.0, 300.0, dict(rate=1e-3, rollback_cost=7.0), 1500.0),
            (7600.0, 177.3, dict(rate=1.4e-3), 10_000.0),
            (800.0, 800.0, dict(rate=1e-3), 2000.0),
            (1000.0, 100.0, dict(rate=math.inf), 2000.0),
            (1000.0, 100.0, dict(rate=0.0), 1100.0),
        ],
        ids=["uniform", "uniform-loose", "tail-rollback", "table-1a", "one",
             "rate-inf", "rate-0-late"],
    )
    def test_every_field_matches_an_independent_recursion(
        self, work, interval, kwargs, deadline
    ):
        schedule = static_schedule(work, interval, checkpoint_cost=22.0, **kwargs)
        outcome = static_outcome(schedule, deadline)
        reference = _reference_outcome(schedule, deadline)
        fields = (
            outcome.p_timely,
            outcome.finish_timely,
            outcome.end_time,
            outcome.detected_faults,
            outcome.checkpoints,
        )
        for ours, theirs in zip(fields, reference):
            if math.isnan(theirs):
                assert math.isnan(ours)
            else:
                assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-300)

    def test_rate_extremes_and_one_interval_terminate(self):
        for rate in (0.0, math.inf):
            for interval in (100.0, 1000.0):
                schedule = static_schedule(
                    1000.0, interval, checkpoint_cost=22.0, rate=rate
                )
                outcome = static_outcome(schedule, 10_000.0)
                assert 0.0 <= outcome.p_timely <= 1.0
        assert static_outcome(
            static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=math.inf),
            10_000.0,
        ).p_timely == 0.0

    def test_abandoned_runs_stop_early(self):
        # One interval: a failed attempt leaves 1000 of work and 978 of
        # time, so every failure is abandoned right after its CSCP.
        schedule = static_schedule(1000.0, 1000.0, checkpoint_cost=22.0, rate=1e-3)
        outcome = static_outcome(schedule, 2000.0)
        assert outcome.p_timely == pytest.approx(math.exp(-1.0))
        assert outcome.end_time == pytest.approx(1022.0)
        assert outcome.checkpoints == pytest.approx(1.0)
        assert outcome.detected_faults == pytest.approx(1.0 - math.exp(-1.0))

    def test_no_timely_run_has_nan_finish(self):
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=1e-3)
        outcome = static_outcome(schedule, 120.0)
        assert outcome.p_timely == 0.0
        assert math.isnan(outcome.finish_timely)

    def test_deadline_must_be_finite(self):
        schedule = static_schedule(100.0, 50.0, checkpoint_cost=22.0, rate=1e-3)
        with pytest.raises(ParameterError):
            static_outcome(schedule, math.inf)


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
