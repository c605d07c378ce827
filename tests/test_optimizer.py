"""Unit tests for num_SCP / num_CCP (paper fig. 2).

SciPy is the reference for ``num_ccp``'s bounded Brent search, an
in-repo port of ``scipy.optimize.minimize_scalar(method="bounded")``;
the runtime itself never imports it.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from repro.core import optimizer
from repro.core.optimizer import (
    DEFAULT_MAX_SUBDIVISIONS,
    SubdivisionPlan,
    brute_force_num_ccp,
    brute_force_num_scp,
    num_ccp,
    num_scp,
)
from repro.core.renewal import (
    ccp_interval_time,
    ccp_interval_time_for_m,
    scp_interval_time_for_m,
)
from repro.errors import ParameterError

TS, TCP = 2.0, 20.0


def scp_cases():
    """(span, rate) grid spanning the paper's operating regimes."""
    return [
        (50.0, 2.8e-3),
        (100.0, 2.8e-3),
        (177.0, 2.8e-3),  # ≈ I1 at table-1 parameters
        (200.0, 1.4e-3),
        (200.0, 2e-4),
        (400.0, 2.8e-3),
        (469.0, 2e-4),
        (1000.0, 1e-3),
        (2000.0, 5e-4),
    ]


class TestNumSCP:
    @pytest.mark.parametrize("span,rate", scp_cases())
    def test_matches_brute_force(self, span, rate):
        fast = num_scp(span, rate=rate, store=TS, compare=TCP)
        exact = brute_force_num_scp(span, rate=rate, store=TS, compare=TCP)
        # fig. 2 only compares ⌊T/T̃1⌋ with its successor; allow a tie in
        # expected time but never a worse outcome beyond float noise.
        assert fast.expected_time == pytest.approx(
            exact.expected_time, rel=1e-9
        ) or fast.expected_time <= exact.expected_time * (1 + 1e-6)

    @pytest.mark.parametrize("span,rate", scp_cases())
    def test_result_is_locally_optimal(self, span, rate):
        plan = num_scp(span, rate=rate, store=TS, compare=TCP)

        def objective(m):
            return scp_interval_time_for_m(
                m, span=span, rate=rate, store=TS, compare=TCP
            )

        assert plan.expected_time == pytest.approx(objective(plan.m))
        assert objective(plan.m) <= objective(plan.m + 1) + 1e-9
        if plan.m > 1:
            assert objective(plan.m) <= objective(plan.m - 1) + 1e-9

    def test_m_is_one_when_no_subdivision_helps(self):
        # Tiny rate: extra stores cannot pay for themselves.
        plan = num_scp(50.0, rate=1e-9, store=TS, compare=TCP)
        assert plan.m == 1

    def test_zero_rate_shortcut(self):
        plan = num_scp(200.0, rate=0.0, store=TS, compare=TCP)
        assert plan.m == 1
        assert plan.sublength == 200.0

    def test_free_store_clamps_to_max(self):
        plan = num_scp(200.0, rate=1e-3, store=0.0, compare=TCP, max_m=64)
        assert plan.m == 64

    def test_subdivides_at_paper_parameters(self):
        # Table 1(a): high λT → the optimiser must insert SCPs.
        plan = num_scp(177.0, rate=2.8e-3, store=2.0, compare=20.0)
        assert plan.m > 1

    def test_inlined_r1_is_the_objective_bit_for_bit(self):
        rng = random.Random(23)
        for _ in range(500):
            kwargs = dict(
                span=math.exp(rng.uniform(math.log(1.0), math.log(1e4))),
                rate=math.exp(rng.uniform(math.log(1e-6), math.log(2e-2))),
                store=rng.uniform(0.1, 50.0),
                compare=rng.uniform(0.1, 50.0),
                rollback=rng.choice([0.0, rng.uniform(0.1, 50.0)]),
            )
            plan = num_scp(**kwargs)
            expected = scp_interval_time_for_m(plan.m, **kwargs)
            assert plan.expected_time.hex() == expected.hex(), kwargs

    def test_sublength_times_m_is_span(self):
        plan = num_scp(300.0, rate=1e-3, store=TS, compare=TCP)
        assert plan.m * plan.sublength == pytest.approx(300.0)

    def test_rejects_bad_span(self):
        with pytest.raises(ParameterError):
            num_scp(0.0, rate=1e-3, store=TS, compare=TCP)
        with pytest.raises(ParameterError):
            num_scp(float("inf"), rate=1e-3, store=TS, compare=TCP)

    def test_rejects_bad_max_m(self):
        with pytest.raises(ParameterError):
            num_scp(100.0, rate=1e-3, store=TS, compare=TCP, max_m=0)

    def test_expensive_store_discourages_subdivision(self):
        # The SCP twin of TestNumCCP's expensive-compare test: a dearer
        # store never buys more stores per interval.
        stores = [2.0 + i for i in range(101)]
        ms = [
            num_scp(200.0, rate=1.4e-3, store=store, compare=TCP).m
            for store in stores
        ]
        assert all(b <= a for a, b in zip(ms, ms[1:])), ms
        assert ms[0] == 4
        assert set(ms[stores.index(14.0):]) == {1}


class TestNumCCP:
    @pytest.mark.parametrize("span,rate", scp_cases())
    def test_matches_brute_force(self, span, rate):
        # CCP-favourable costs (paper §4.2): cheap compares.
        fast = num_ccp(span, rate=rate, store=20.0, compare=2.0)
        exact = brute_force_num_ccp(span, rate=rate, store=20.0, compare=2.0)
        assert fast.expected_time <= exact.expected_time * (1 + 1e-6)

    @pytest.mark.parametrize("span,rate", scp_cases())
    def test_result_is_locally_optimal(self, span, rate):
        plan = num_ccp(span, rate=rate, store=20.0, compare=2.0)

        def objective(m):
            return ccp_interval_time_for_m(
                m, span=span, rate=rate, store=20.0, compare=2.0
            )

        assert objective(plan.m) <= objective(plan.m + 1) + 1e-9
        if plan.m > 1:
            assert objective(plan.m) <= objective(plan.m - 1) + 1e-9

    def test_zero_rate_shortcut(self):
        plan = num_ccp(200.0, rate=0.0, store=20.0, compare=2.0)
        assert plan.m == 1

    def test_free_compare_clamps_to_max(self):
        plan = num_ccp(200.0, rate=1e-3, store=20.0, compare=0.0, max_m=32)
        assert plan.m == 32

    def test_subdivides_at_paper_parameters(self):
        plan = num_ccp(177.0, rate=2.8e-3, store=20.0, compare=2.0)
        assert plan.m > 1

    def test_expensive_compare_discourages_subdivision(self):
        cheap = num_ccp(200.0, rate=2.8e-3, store=20.0, compare=2.0)
        pricey = num_ccp(200.0, rate=2.8e-3, store=20.0, compare=40.0)
        assert pricey.m <= cheap.m


class TestBruteForce:
    def test_brute_force_really_is_argmin_scp(self):
        span, rate = 200.0, 2.8e-3
        plan = brute_force_num_scp(span, rate=rate, store=TS, compare=TCP, max_m=64)
        values = [
            scp_interval_time_for_m(m, span=span, rate=rate, store=TS, compare=TCP)
            for m in range(1, 65)
        ]
        assert plan.m == values.index(min(values)) + 1

    def test_brute_force_really_is_argmin_ccp(self):
        span, rate = 200.0, 2.8e-3
        plan = brute_force_num_ccp(
            span, rate=rate, store=20.0, compare=2.0, max_m=64
        )
        values = [
            ccp_interval_time_for_m(
                m, span=span, rate=rate, store=20.0, compare=2.0
            )
            for m in range(1, 65)
        ]
        assert plan.m == values.index(min(values)) + 1

    def test_default_max_is_sane(self):
        assert DEFAULT_MAX_SUBDIVISIONS >= 1024


def scipy_num_ccp(
    span,
    *,
    rate,
    store,
    compare,
    rollback=0.0,
    max_m=DEFAULT_MAX_SUBDIVISIONS,
):
    """``num_ccp`` as it was before the port: SciPy's search over R2."""
    optimizer._check_args(span, rate, max_m)

    def objective(m):
        return ccp_interval_time_for_m(
            m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
        )

    if rate == 0:
        return SubdivisionPlan(m=1, sublength=span, expected_time=objective(1))
    if compare == 0:
        return SubdivisionPlan(
            m=max_m, sublength=span / max_m, expected_time=objective(max_m)
        )

    def continuous(t2):
        return ccp_interval_time(
            t2, span=span, rate=rate, store=store, compare=compare, rollback=rollback
        )

    result = minimize_scalar(continuous, bounds=(span / max_m, span), method="bounded")
    opt = float(result.x) if result.success else span
    if not opt > 0 or opt >= span:
        m = 1
    else:
        m = max(1, min(int(span / opt), max_m - 1))
        if objective(m) > objective(m + 1):
            m += 1
    return SubdivisionPlan(m=m, sublength=span / m, expected_time=objective(m))


def outcome(search, kwargs):
    """A plan's fields bit for bit (any NaN alike), or the error's type."""
    try:
        plan = search(**kwargs)
    except Exception as exc:  # the exception type is part of the contract
        return ("raises", type(exc).__name__)
    return ("plan", plan.m, plan.sublength.hex(), plan.expected_time.hex())


def value_or_error(thunk):
    try:
        return thunk().hex()
    except Exception as exc:
        return type(exc).__name__


MAX_MS = (1, 2, 32, 256, 4096)


def sweep_inputs(count, seed):
    """Seeded ``num_ccp`` arguments over the operating range and past it."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(count):
        pick = rng.random()
        if pick < 0.8:
            rate = log_uniform(1e-6, 1e-1)
        elif pick < 0.87:
            rate = log_uniform(5e-324, 1e-300)  # subnormal: r·T2 may underflow to 0
        elif pick < 0.94:
            rate = log_uniform(1.0, 1e4)  # e^{r·T} overflows for most spans
        elif pick < 0.97:
            rate = math.inf
        else:
            rate = math.nan
        yield dict(
            span=log_uniform(1e-2, 1e5),
            rate=rate,
            store=log_uniform(1e-4, 1e3),
            compare=log_uniform(1e-4, 1e3),
            rollback=0.0 if rng.random() < 0.5 else log_uniform(1e-4, 1e3),
            max_m=rng.choice(MAX_MS),
        )


def scipy_brent(func, a, b):
    result = minimize_scalar(func, bounds=(a, b), method="bounded")
    return result.x, result.success


def traced_search(search, func, a, b):
    """Every trial point, the returned x and success, bit for bit."""
    points = []

    def traced(x):
        points.append(float(x).hex())
        return func(x)

    x, success = search(traced, a, b)
    return points, float(x).hex(), bool(success)


def r2_at_table_3(t2):
    return ccp_interval_time(t2, span=177.0, rate=2.8e-3, store=20.0, compare=2.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # SciPy's numpy floats overflow
class TestBrentPortMatchesSciPy:
    def test_sweep(self):
        kinds = Counter()
        mismatches = []
        for kwargs in sweep_inputs(20_000, seed=2006):
            expected = outcome(scipy_num_ccp, kwargs)
            kinds[expected[1] if expected[0] == "raises" else "plan"] += 1
            actual = outcome(num_ccp, kwargs)
            if actual != expected:
                mismatches.append((kwargs, expected, actual))
        assert not mismatches, f"{len(mismatches)} differ, first: {mismatches[:3]}"
        # The sweep reaches both of R2's float errors, not only plans.
        assert kinds["OverflowError"] > 1000 and kinds["ZeroDivisionError"] > 0, kinds
        assert kinds["plan"] > 15_000, kinds

    @given(
        span=st.floats(min_value=1e-3, max_value=1e6),
        rate=st.one_of(
            st.floats(min_value=0.0, max_value=1e4),
            st.floats(min_value=5e-324, max_value=1e-300),
            st.sampled_from([math.inf, math.nan]),
        ),
        store=st.floats(min_value=0.0, max_value=1e3),
        compare=st.floats(min_value=0.0, max_value=1e3),
        rollback=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=1e3)),
        max_m=st.sampled_from(MAX_MS),
    )
    @settings(max_examples=300, deadline=None)
    def test_property(self, span, rate, store, compare, rollback, max_m):
        kwargs = dict(
            span=span, rate=rate, store=store, compare=compare,
            rollback=rollback, max_m=max_m,
        )
        assert outcome(num_ccp, kwargs) == outcome(scipy_num_ccp, kwargs)

    @pytest.mark.parametrize(
        "func,a,b",
        [
            pytest.param(lambda x: x, 0.0, 1e300, id="evaluation-cap"),
            pytest.param(lambda x: math.nan, 1.0, 2.0, id="nan"),
            pytest.param(lambda x: math.nan if x > 3.0 else (x - 1.0) ** 2, 0.0, 5.0,
                         id="nan-region"),
            # f(x) stays finite; only the last trial value is NaN.
            pytest.param(lambda x: x if x >= 0.5 else math.nan, 0.0, 5.0,
                         id="nan-last-trial"),
            pytest.param(lambda x: 1.0, 0.0, 10.0, id="constant"),
            pytest.param(lambda x: x, 1.0, 10.0, id="minimum-at-lower-bound"),
            pytest.param(lambda x: -x, 1.0, 10.0, id="minimum-at-upper-bound"),
            pytest.param(lambda x: (x - 2.0) ** 2, 0.0, 5.0, id="parabola"),
            pytest.param(lambda x: math.sin(50.0 * x), 0.0, 10.0, id="multimodal"),
            pytest.param(lambda x: math.sin(20.0 * x), 0.0, 10.0, id="multimodal-2"),
            pytest.param(lambda x: abs(x - 0.5), 0.0, 1.0, id="kink"),
            pytest.param(lambda x: math.sqrt(abs(x - 0.5)), 0.0, 1.0, id="cusp"),
            pytest.param(lambda x: math.floor(10.0 * abs(x - 0.5)), 0.0, 1.0,
                         id="staircase"),
            # Flat halves: the search reaches x == midpoint of its bracket.
            pytest.param(lambda x: 0.0 if x < 0.5 else 1.0, 0.0, 1.0, id="step"),
            pytest.param(lambda x: (x - 1.0) ** 2, 5.0, 5.0, id="single-point"),
            pytest.param(r2_at_table_3, 177.0 / 4096, 177.0, id="r2-table-3"),
        ],
    )
    def test_synthetic_function(self, func, a, b):
        expected = traced_search(scipy_brent, func, a, b)
        assert traced_search(optimizer._bounded_brent, func, a, b) == expected

    def test_sign_and_maximum_are_numpy_s(self):
        np = pytest.importorskip("numpy")
        specials = (-math.inf, -1.5, -0.0, 0.0, 5e-324, 2.0, math.inf, math.nan)
        for u in specials:
            assert optimizer._sign(u).hex() == float(np.sign(u) + (u == 0)).hex()
            for v in specials:
                expected = float(np.maximum(u, v)).hex()
                assert optimizer._maximum(u, v).hex() == expected, (u, v)

    def test_synthetic_functions_reach_both_failure_flags(self):
        # SciPy's status 1 (evaluation cap) and 2 (NaN), which the
        # comparisons above then hold the port to.
        capped = minimize_scalar(lambda x: x, bounds=(0.0, 1e300), method="bounded")
        assert (capped.status, capped.nfev) == (1, 500)
        nan_last = minimize_scalar(
            lambda x: x if x >= 0.5 else math.nan, bounds=(0.0, 5.0), method="bounded"
        )
        assert nan_last.status == 2 and math.isfinite(nan_last.fun)
        assert optimizer._bounded_brent(lambda x: x, 0.0, 1e300)[1] is False

    def test_inlined_r2_is_ccp_interval_time(self):
        rng = random.Random(17)
        for kwargs in sweep_inputs(2_000, seed=17):
            span = kwargs.pop("span")
            kwargs.pop("max_m")
            try:
                r2 = optimizer._ccp_time(span, **kwargs)
            except OverflowError:
                # The hoisted e^{rT} − 1 overflows: so does every in-range
                # evaluation (the search's first point is in range).
                with pytest.raises(OverflowError):
                    ccp_interval_time(span, span=span, **kwargs)
                continue
            for t2 in (
                span,
                span * rng.random(),
                span / rng.choice(MAX_MS),
                0.0,
                span * 1.5,
                math.nan,
            ):
                expected = value_or_error(
                    lambda: ccp_interval_time(t2, span=span, **kwargs)
                )
                assert value_or_error(lambda: r2(t2)) == expected, (span, kwargs, t2)

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            (dict(span=100.0, rate=1e-3, store=-1.0, compare=2.0), "ParameterError"),
            (dict(span=1e5, rate=1.0, store=20.0, compare=2.0), "OverflowError"),
            (dict(span=0.01, rate=5e-324, store=20.0, compare=2.0),
             "ZeroDivisionError"),
        ],
        ids=["bad-cost", "overflow", "underflow"],
    )
    def test_errors_like_scipy(self, kwargs, error):
        # R2's validation and e^{rT} − 1 are hoisted out of the search;
        # the error is still the one the first evaluation raised.
        expected = outcome(scipy_num_ccp, kwargs)
        assert outcome(num_ccp, kwargs) == expected == ("raises", error)


def memo_outcome(search, kwargs):
    """:func:`outcome` with each field's type (``4095 == 4095.0``)."""
    try:
        plan = search(**kwargs)
    except Exception as exc:
        return ("raises", type(exc).__name__)
    return ("plan",) + tuple(
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in (plan.m, plan.sublength, plan.expected_time)
    )


def negated_zeros(kwargs):
    return {
        name: -0.0 if isinstance(value, float) and value == 0.0 else value
        for name, value in kwargs.items()
    }


def integral_as_int(kwargs):
    return {
        name: int(value)
        if isinstance(value, float) and math.isfinite(value) and value.is_integer()
        else value
        for name, value in kwargs.items()
    }


SEARCHES = pytest.mark.parametrize(
    "search", [num_scp, num_ccp], ids=["num_scp", "num_ccp"]
)


class TestMemo:
    """``num_scp`` / ``num_ccp`` are memoised per process.

    A hit must be the very plan the unmemoised ``__wrapped__`` solve
    returns, whatever was cached before: ``0.0 == -0.0`` and
    ``1 == 1.0`` hash alike, so the variants below share or split
    memo entries and every answer is checked bit for bit.
    """

    @SEARCHES
    @given(
        span=st.one_of(
            st.floats(min_value=1e-3, max_value=1e6),
            st.integers(min_value=1, max_value=10**6).map(float),
        ),
        rate=st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=1.0),
            st.sampled_from([1e-3, 2.8e-3, 1.0]),
        ),
        store=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
        compare=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
        rollback=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
        max_m=st.sampled_from(MAX_MS + (4096.0,)),
    )
    @settings(max_examples=200, deadline=None)
    def test_memo_equals_wrapped(
        self, search, span, rate, store, compare, rollback, max_m
    ):
        kwargs = dict(
            span=span, rate=rate, store=store, compare=compare,
            rollback=rollback, max_m=max_m,
        )
        for variant in (
            kwargs,
            negated_zeros(kwargs),
            integral_as_int(kwargs),
            negated_zeros(integral_as_int(kwargs)),
        ):
            for _ in range(2):  # the second call is a hit
                assert memo_outcome(search, variant) == memo_outcome(
                    search.__wrapped__, variant
                ), variant

    @SEARCHES
    def test_exceptions_are_raised_on_every_call(self, search):
        before = search.cache_info()
        for _ in range(3):
            with pytest.raises(ParameterError):
                search(-1.0, rate=1e-3, store=TS, compare=TCP)
        after = search.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 3)

    @SEARCHES
    def test_memo_is_bounded(self, search):
        assert search.cache_info().maxsize == optimizer.MEMO_SIZE
        for k in range(optimizer.MEMO_SIZE + 16):
            search(100.0 + k, rate=2.8e-3, store=TS, compare=TCP)
        assert search.cache_info().currsize == optimizer.MEMO_SIZE
