"""Unit tests for the statistical summaries."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.errors import ParameterError
from repro.sim.metrics import (
    MeanEstimate,
    MomentAccumulator,
    ProportionAccumulator,
    ProportionEstimate,
    mean_interval,
    wilson_interval,
)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.30 < high

    def test_narrows_with_trials(self):
        low1, high1 = wilson_interval(30, 100)
        low2, high2 = wilson_interval(300, 1000)
        assert (high2 - low2) < (high1 - low1)

    def test_zero_successes_stays_in_unit_interval(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0 < high < 0.15

    def test_all_successes(self):
        low, high = wilson_interval(50, 50)
        assert high == pytest.approx(1.0, abs=1e-9)
        assert 0.85 < low < 1.0

    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert low + high == pytest.approx(1.0, abs=1e-9)

    def test_matches_textbook_value(self):
        # Wilson 95% for 8/10 ≈ (0.490, 0.943).
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.490, abs=0.01)
        assert high == pytest.approx(0.943, abs=0.01)

    def test_validation(self):
        with pytest.raises(ParameterError):
            wilson_interval(1, 0)
        with pytest.raises(ParameterError):
            wilson_interval(5, 4)
        with pytest.raises(ParameterError):
            wilson_interval(-1, 4)


class TestMeanInterval:
    def test_empty_is_nan(self):
        low, high = mean_interval([])
        assert math.isnan(low) and math.isnan(high)

    def test_single_value_collapses(self):
        low, high = mean_interval([4.2])
        assert low == high == 4.2

    def test_contains_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = mean_interval(values)
        assert low < 3.0 < high

    def test_half_width_matches_normal_theory(self):
        values = list(range(100))
        low, high = mean_interval(values, confidence=0.95)
        import statistics

        half = 1.959964 * statistics.stdev(values) / 10
        assert (high - low) / 2 == pytest.approx(half, rel=1e-3)


class TestNormalQuantileApproximation:
    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99, 0.999])
    def test_against_scipy(self, confidence):
        from repro.sim.metrics import _z_value

        expected = norm.ppf(1 - (1 - confidence) / 2)
        assert _z_value(confidence) == pytest.approx(expected, abs=2e-4)

    def test_invalid_confidence(self):
        from repro.sim.metrics import _z_value

        with pytest.raises(ParameterError):
            _z_value(0.0)
        with pytest.raises(ParameterError):
            _z_value(1.0)


class TestEstimates:
    def test_proportion_from_counts(self):
        est = ProportionEstimate.from_counts(25, 100)
        assert est.value == 0.25
        assert est.low < 0.25 < est.high
        assert est.trials == 100

    def test_mean_from_values(self):
        est = MeanEstimate.from_values([2.0, 4.0, 6.0])
        assert est.value == pytest.approx(4.0)
        assert est.count == 3

    def test_mean_empty_is_nan(self):
        est = MeanEstimate.from_values([])
        assert est.is_nan
        assert est.count == 0


class TestProportionAccumulator:
    def test_add_and_estimate_match_from_counts(self):
        acc = ProportionAccumulator()
        for success in [True, False, True, True, False]:
            acc.add(success)
        assert acc.estimate() == ProportionEstimate.from_counts(3, 5)

    def test_merge_is_exact(self):
        left = ProportionAccumulator(successes=7, trials=10)
        right = ProportionAccumulator(successes=2, trials=15)
        merged = left.merge(right)
        assert merged is left
        assert merged.estimate() == ProportionEstimate.from_counts(9, 25)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ProportionAccumulator(successes=5, trials=3)
        with pytest.raises(ParameterError):
            ProportionAccumulator(successes=-1, trials=3)

    def test_empty_estimate_rejected(self):
        with pytest.raises(ParameterError):
            ProportionAccumulator().estimate()


class TestMomentAccumulator:
    def test_merge_equals_single_pass_exactly(self):
        values = [1.25, -3.5, 7.0625, 0.1, 2.2, 9.75, -0.875]
        single = MomentAccumulator(values).estimate()
        for split in range(len(values) + 1):
            left = MomentAccumulator(values[:split])
            right = MomentAccumulator(values[split:])
            assert left.merge(right).estimate() == single

    def test_payload_is_constant_size(self):
        # The whole point of the streaming refactor: state never grows
        # with the observation count (no raw values are retained).
        import pickle

        small = MomentAccumulator(range(10))
        large = MomentAccumulator(range(100_000))
        # Identical up to the integer count's own encoding width.
        assert len(pickle.dumps(large)) <= len(pickle.dumps(small)) + 8

    def test_empty_merge_is_nan_not_error(self):
        # Regression: merging all-empty blocks (a cell where no run was
        # ever timely) must finalise to the paper's NaN, not raise.
        merged = MomentAccumulator().merge(MomentAccumulator()).merge(
            MomentAccumulator()
        )
        est = merged.estimate()
        assert est.is_nan
        assert math.isnan(est.low) and math.isnan(est.high)
        assert est.count == 0

    def test_empty_blocks_amid_data_preserve_nan_convention(self):
        # Empty blocks interleaved with data blocks are no-ops, and
        # mean/variance stay those of the data alone.
        acc = MomentAccumulator()
        acc.merge(MomentAccumulator([2.0, 4.0]))
        acc.merge(MomentAccumulator())
        acc.merge(MomentAccumulator([6.0]))
        assert acc.count == 3
        assert acc.mean == pytest.approx(4.0)

    def test_count_tracks_observations(self):
        acc = MomentAccumulator()
        assert acc.count == 0
        acc.add(4.5)
        acc.add(5.5)
        assert acc.count == 2
        assert acc.estimate().value == pytest.approx(5.0)

    def test_add_and_add_many_are_bit_identical(self):
        values = [0.1, 0.2, 0.3, 1e8, -1e8, 7.7]
        one_by_one = MomentAccumulator()
        for v in values:
            one_by_one.add(v)
        bulk = MomentAccumulator().add_many(np.array(values))
        assert repr(one_by_one.estimate()) == repr(bulk.estimate())

    def test_accepts_numpy_arrays_without_copies(self):
        array = np.linspace(10.0, 20.0, 101)
        acc = MomentAccumulator(array)
        assert acc.count == 101
        assert acc.mean == pytest.approx(15.0)
        assert acc.variance == pytest.approx(float(np.var(array, ddof=1)))


class TestMomentNumerics:
    """Compensated-sum behaviour the value-carrying baseline got free."""

    def test_large_offset_variance_survives_cancellation(self):
        # mean/σ ≈ 3e9: a naive Σx² - (Σx)²/n in doubles returns noise
        # (relative error ~2⁻⁵²·(mean/σ)² ≈ 2000); the compensated sums
        # keep it at rounding level.
        offset = 1e9
        # Dyadic noise so offset + v is exactly representable and the
        # reference variance is the true one.
        noise = [0.125 * i for i in range(1, 9)]
        acc = MomentAccumulator(offset + v for v in noise)
        import statistics

        exact = statistics.variance(noise)  # offset-free reference
        assert acc.variance == pytest.approx(exact, rel=1e-9)

    def test_large_offset_variance_after_blocked_merge(self):
        offset = 4e8
        values = [offset + i * 0.125 for i in range(64)]
        whole = MomentAccumulator(values)
        merged = MomentAccumulator()
        for start in range(0, 64, 16):
            merged.merge(MomentAccumulator(values[start:start + 16]))
        import statistics

        exact = statistics.variance(values)
        assert whole.variance == pytest.approx(exact, rel=1e-9)
        assert merged.variance == pytest.approx(exact, rel=1e-9)
        # And the two reduction shapes agree to the bit in practice.
        assert repr(whole.estimate()) == repr(merged.estimate())

    def test_near_cancellation_sum(self):
        # Alternating huge ± values with a tiny residual: the naive sum
        # loses the residual entirely.
        acc = MomentAccumulator([1e16, 1.0, -1e16, 1.0])
        assert acc.sum == pytest.approx(2.0)
        assert acc.mean == pytest.approx(0.5)

    def test_m2_never_negative(self):
        acc = MomentAccumulator([5.0] * 1000)
        assert acc.m2 == 0.0
        assert acc.variance == 0.0

    def test_variance_nan_below_two(self):
        assert math.isnan(MomentAccumulator().variance)
        assert math.isnan(MomentAccumulator([3.0]).variance)


class TestMomentMemory:
    """A blocked reduce holds one block's temporaries, never the values."""

    @staticmethod
    def _peak_bytes(size, block=256):
        import tracemalloc

        values = np.random.default_rng(2006).normal(40_000.0, 500.0, size)
        tracemalloc.start()
        try:
            total = MomentAccumulator()
            for start in range(0, size, block):
                total.merge(
                    MomentAccumulator().add_many(values[start:start + block])
                )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_blocked_reduce_peak_is_bounded_by_the_block(self):
        # Ten times the values may not raise the peak (~36 KB either
        # way); keeping the 20,000 floats would take 160 KB as an array
        # and ~800 KB as a list.
        small, large = self._peak_bytes(2_000), self._peak_bytes(20_000)
        assert large <= 1.25 * small
        assert large < 20_000 * 8 / 2


class TestVectorisedAddMany:
    """The NumPy block path of add_many is bit-identical to scalar add."""

    def _state(self, acc):
        return (acc.count, acc._sum_hi, acc._sum_lo, acc._sq_hi, acc._sq_lo)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "offset,spread", [(0.0, 1.0), (40_000.0, 500.0), (1e12, 1.0)]
    )
    def test_array_path_matches_scalar_add(self, seed, offset, spread):
        rng = np.random.default_rng(seed)
        values = rng.normal(offset, spread, size=513)
        scalar = MomentAccumulator()
        for value in values:
            scalar.add(float(value))
        vectorised = MomentAccumulator()
        vectorised.add_many(values)  # ndarray: the NumPy block path
        assert self._state(vectorised) == self._state(scalar)

    def test_array_path_matches_generic_iterable_path(self):
        values = np.random.default_rng(7).exponential(3.0, size=257)
        from_list = MomentAccumulator().add_many(list(values))
        from_array = MomentAccumulator().add_many(values)
        assert self._state(from_array) == self._state(from_list)

    def test_integer_arrays_accumulate_exactly(self):
        values = np.arange(100, dtype=np.int64)
        acc = MomentAccumulator().add_many(values)
        assert acc.count == 100
        assert acc.sum == float(values.sum())

    def test_empty_array_is_a_noop(self):
        acc = MomentAccumulator()
        acc.add_many(np.empty(0))
        assert acc.count == 0
        assert math.isnan(acc.mean)

    def test_chained_blocks_match_one_pass(self):
        values = np.random.default_rng(3).normal(10.0, 2.0, size=400)
        one_pass = MomentAccumulator().add_many(values)
        blocked = MomentAccumulator()
        blocked.add_many(values[:137])
        blocked.add_many(values[137:])
        assert self._state(blocked) == self._state(one_pass)


class TestProportionAddMany:
    def test_matches_scalar_add(self):
        flags = np.random.default_rng(0).random(301) < 0.4
        scalar = ProportionAccumulator()
        for flag in flags:
            scalar.add(bool(flag))
        block = ProportionAccumulator().add_many(flags)
        assert (block.successes, block.trials) == (scalar.successes, scalar.trials)

    def test_accepts_plain_sequences(self):
        acc = ProportionAccumulator().add_many([True, False, True, True])
        assert (acc.successes, acc.trials) == (3, 4)

    def test_merge_after_add_many_is_exact(self):
        left = ProportionAccumulator().add_many(np.array([True, False]))
        right = ProportionAccumulator().add_many(np.array([True, True, False]))
        merged = left.merge(right)
        assert (merged.successes, merged.trials) == (3, 5)
