"""Unit tests for the DVS machinery (t_est and speed ladders)."""

import math

import pytest

from repro.core.dvs import SpeedLadder, estimated_completion_time
from repro.errors import ParameterError


class TestEstimatedCompletionTime:
    def test_formula_value(self):
        # t_est = Rc(1 + sqrt(λc/f)) / (f(1 − sqrt(λc/f)))
        rc, f, lam, c = 9200.0, 1.0, 1e-4, 22.0
        loss = math.sqrt(lam * c / f)
        expected = rc * (1 + loss) / (f * (1 - loss))
        assert estimated_completion_time(
            rc, f, rate=lam, checkpoint_cycles=c
        ) == pytest.approx(expected)

    def test_paper_feasibility_case(self):
        # Table 1(b), U = 0.92: t_est at f1 just misses the deadline —
        # this is why A_D starts at the high speed there.
        t_est = estimated_completion_time(9200.0, 1.0, rate=1e-4, checkpoint_cycles=22)
        assert t_est > 10_000
        t_est_f2 = estimated_completion_time(
            9200.0, 2.0, rate=1e-4, checkpoint_cycles=22
        )
        assert t_est_f2 < 10_000

    def test_zero_rate_is_pure_work(self):
        assert estimated_completion_time(
            1000.0, 2.0, rate=0.0, checkpoint_cycles=22
        ) == pytest.approx(500.0)

    def test_zero_work(self):
        assert estimated_completion_time(0.0, 1.0, rate=1e-3, checkpoint_cycles=22) == 0.0

    def test_infeasible_when_overhead_saturates(self):
        # λc/f ≥ 1 → no finite estimate.
        assert estimated_completion_time(
            100.0, 1.0, rate=0.05, checkpoint_cycles=22
        ) == math.inf

    def test_monotone_in_work(self):
        a = estimated_completion_time(1000.0, 1.0, rate=1e-3, checkpoint_cycles=22)
        b = estimated_completion_time(2000.0, 1.0, rate=1e-3, checkpoint_cycles=22)
        assert b > a

    def test_faster_speed_is_faster(self):
        slow = estimated_completion_time(1000.0, 1.0, rate=1e-3, checkpoint_cycles=22)
        fast = estimated_completion_time(1000.0, 2.0, rate=1e-3, checkpoint_cycles=22)
        assert fast < slow

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            estimated_completion_time(-1.0, 1.0, rate=1e-3, checkpoint_cycles=22)
        with pytest.raises(ParameterError):
            estimated_completion_time(1.0, 0.0, rate=1e-3, checkpoint_cycles=22)
        with pytest.raises(ParameterError):
            estimated_completion_time(1.0, 1.0, rate=-1e-3, checkpoint_cycles=22)
        with pytest.raises(ParameterError):
            estimated_completion_time(1.0, 1.0, rate=1e-3, checkpoint_cycles=-1)


class TestSpeedLadder:
    def test_paper_two_level(self):
        ladder = SpeedLadder.paper_two_level()
        assert ladder.frequencies == (1.0, 2.0)
        assert ladder.minimum == 1.0
        assert ladder.maximum == 2.0
        # Calibrated voltages: V = sqrt(2f) → energy/cycle 2f.
        assert ladder.voltage_of(1.0) == pytest.approx(math.sqrt(2))
        assert ladder.voltage_of(2.0) == pytest.approx(2.0)

    def test_select_slowest_feasible(self):
        ladder = SpeedLadder.paper_two_level()
        # Loose deadline: low speed suffices.
        assert ladder.select_speed(
            1000.0, 10_000.0, rate=1e-4, checkpoint_cycles=22
        ) == 1.0
        # Tight deadline: must escalate (paper fig. 6 line 2).
        assert ladder.select_speed(
            9200.0, 10_000.0, rate=1e-4, checkpoint_cycles=22
        ) == 2.0

    def test_returns_fastest_when_nothing_feasible(self):
        ladder = SpeedLadder.paper_two_level()
        assert ladder.select_speed(
            50_000.0, 100.0, rate=1e-4, checkpoint_cycles=22
        ) == 2.0

    def test_multi_level_selects_intermediate(self):
        ladder = SpeedLadder.from_frequencies((1.0, 1.25, 1.5, 2.0))
        chosen = ladder.select_speed(
            11_000.0, 10_000.0, rate=1e-4, checkpoint_cycles=22
        )
        assert chosen == 1.25

    def test_voltage_of_unknown_frequency(self):
        ladder = SpeedLadder.paper_two_level()
        with pytest.raises(ParameterError):
            ladder.voltage_of(3.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SpeedLadder(frequencies=(), voltages=())
        with pytest.raises(ParameterError):
            SpeedLadder(frequencies=(1.0, 2.0), voltages=(1.0,))
        with pytest.raises(ParameterError):
            SpeedLadder(frequencies=(2.0, 1.0), voltages=(1.0, 2.0))
        with pytest.raises(ParameterError):
            SpeedLadder(frequencies=(0.0, 1.0), voltages=(1.0, 2.0))
        with pytest.raises(ParameterError):
            SpeedLadder(frequencies=(1.0, 2.0), voltages=(1.0, -2.0))

    def test_linear_voltage_exponent(self):
        ladder = SpeedLadder.from_frequencies((1.0, 2.0), voltage_exponent=1.0)
        # V = sqrt(2)·f
        assert ladder.voltage_of(2.0) == pytest.approx(2.0 * math.sqrt(2))

    def test_from_frequencies_scales_every_level(self):
        ladder = SpeedLadder.from_frequencies(tuple(1.0 + i / 3 for i in range(4)))
        assert ladder.minimum == 1.0
        assert ladder.maximum == 2.0
        assert ladder.frequencies == pytest.approx((1.0, 4 / 3, 5 / 3, 2.0))
        for f, v in zip(ladder.frequencies, ladder.voltages):
            assert v == pytest.approx(math.sqrt(2 * f))

    def test_from_frequencies_validates(self):
        for frequencies in [(), (2.0, 1.0), (1.0, 1.0, 2.0), (0.0, 1.0)]:
            with pytest.raises(ParameterError):
                SpeedLadder.from_frequencies(frequencies)

    def test_single_level_ladder(self):
        ladder = SpeedLadder.from_frequencies((1.0,))
        assert ladder.minimum == ladder.maximum == 1.0
        for work in (100.0, 50_000.0):  # feasible, then not
            assert ladder.select_speed(
                work, 10_000.0, rate=1e-4, checkpoint_cycles=22
            ) == 1.0

    def test_select_speed_is_slowest_level_meeting_t_est(self):
        # The memoised per-level factors must decide exactly as
        # estimated_completion_time does, level by level.
        ladder = SpeedLadder.from_frequencies((1.0, 1.1, 1.25, 1.6, 2.0))
        rate, c, deadline = 1e-3, 22.0, 10_000.0
        for work in [0.0, 500.0] + [1000.0 * k for k in range(6, 22)]:
            expected = next(
                (
                    f
                    for f in ladder.frequencies
                    if estimated_completion_time(
                        work, f, rate=rate, checkpoint_cycles=c
                    )
                    <= deadline
                ),
                ladder.maximum,
            )
            assert ladder.select_speed(
                work, deadline, rate=rate, checkpoint_cycles=c
            ) == expected, work

    def test_skips_levels_without_finite_estimate(self):
        # λc/f = 1.1 at f1: no finite t_est there, however small the
        # work; at 1.25 and above the overhead no longer saturates.
        ladder = SpeedLadder.from_frequencies((1.0, 1.25, 2.0))
        assert ladder.select_speed(
            1.0, 10_000.0, rate=0.05, checkpoint_cycles=22
        ) == 1.25

    def test_select_speed_rejects_bad_inputs(self):
        ladder = SpeedLadder.paper_two_level()
        with pytest.raises(ParameterError):
            ladder.select_speed(-1.0, 100.0, rate=1e-3, checkpoint_cycles=22)
        with pytest.raises(ParameterError):
            ladder.select_speed(1.0, 100.0, rate=-1e-3, checkpoint_cycles=22)
        with pytest.raises(ParameterError):
            ladder.select_speed(1.0, 100.0, rate=1e-3, checkpoint_cycles=-1)
