"""Statistical summaries for Monte-Carlo experiment cells.

The paper reports two numbers per cell: ``P`` (fraction of 10,000 runs
completing by the deadline) and ``E`` (mean energy — of the timely runs,
as evidenced by the ``NaN`` entries at ``P = 0``).  This module adds the
uncertainty quantification a reproduction needs: Wilson score intervals
for proportions and normal-approximation intervals for means, gathered
per cell in a :class:`CellEstimate`.  Only the array branches import
numpy, so a saved estimate loads without it.

For sharded execution (:mod:`repro.sim.parallel` and the backends in
:mod:`repro.sim.backends`) it provides *mergeable accumulators* whose
payload is **O(1) in the number of observations**:

* :class:`ProportionAccumulator` — integer success/trial counts, so
  merging is exact by construction;
* :class:`MomentAccumulator` — streaming moments (count, compensated
  sum, compensated sum of squares) finalising into the same
  :class:`MeanEstimate` a single pass would produce.

Raw per-run observations are never stored or shipped anywhere — this is
what lets a worker (or a future distributed backend) return a
fixed-size payload for a 10,000-rep shard instead of 10,000 floats.

Numerics
--------
:class:`MomentAccumulator` keeps its sums in *double-double* (a
``(hi, lo)`` pair of floats carrying ~106 bits of precision, the
compensated-summation technique of Dekker/Knuth).  Two consequences:

* **Mergeability.**  Chan et al.'s parallel update for combining
  partial moments is, in the sum-of-powers formulation, just addition
  of the partial sums; performed in double-double the addition is
  associative *far* below the final rounding, so merging per-block
  accumulators in block order reproduces the single-pass statistics
  bit-for-bit in practice (and always to ~1 ulp by construction).  The
  hard determinism contract — identical bits for any worker count at a
  fixed block size — needs no numerical argument at all: the same
  additions happen in the same order (see ``README``).
* **Cancellation.**  The textbook hazard of sum-of-squares variance
  (``E[x²] - E[x]²`` cancels catastrophically when the mean dwarfs the
  spread) is suppressed by ~53 extra mantissa bits: the relative error
  of the variance is ~``2⁻¹⁰⁴·(mean/σ)²``, i.e. still at rounding level
  for mean/σ ratios up to ~10⁸ where a naive accumulator returns noise.
  ``tests/test_metrics.py`` pins this with large-offset value sets.

An empty accumulator finalises to the paper's ``NaN`` convention (the
timely-energy mean of a cell where no run was ever timely), never an
error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.errors import ParameterError

__all__ = [
    "wilson_interval",
    "mean_interval",
    "CellEstimate",
    "ProportionEstimate",
    "MeanEstimate",
    "ProportionAccumulator",
    "MomentAccumulator",
]


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because experiment cells
    routinely sit at ``P ≈ 0`` or ``P ≈ 1`` where the latter collapses.
    """
    if trials <= 0:
        raise ParameterError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ParameterError(
            f"successes must be in [0, trials]; got {successes}/{trials}"
        )
    z = _z_value(confidence)
    n = float(trials)
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2.0 * n)) / denom
    margin = (
        z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


def mean_interval(
    values: Iterable[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Normal-approximation confidence interval for a sample mean.

    Accepts any iterable of floats (lists, tuples, NumPy arrays); the
    computation streams through a :class:`MomentAccumulator`.
    """
    estimate = MomentAccumulator(values).estimate(confidence)
    return (estimate.low, estimate.high)


def _is_ndarray(values: object) -> bool:
    """``isinstance(values, numpy.ndarray)`` without importing numpy.

    Exact, not a heuristic: no array can exist before numpy has been
    imported, and the numpy-free result path (``repro submit``) must
    not pay for the import.
    """
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(values, numpy.ndarray)


def _z_value(confidence: float) -> float:
    if not 0 < confidence < 1:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    # Acklam-style rational approximation of the normal quantile; more
    # than accurate enough for reporting intervals.
    p = 1.0 - (1.0 - confidence) / 2.0
    return _norm_ppf(p)


def _norm_ppf(p: float) -> float:
    """Inverse standard normal CDF (Acklam's approximation)."""
    if not 0 < p < 1:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


# -- double-double helpers ---------------------------------------------------
#
# A double-double is an unevaluated (hi, lo) pair with |lo| ≤ ulp(hi)/2,
# representing hi + lo to ~106 bits.  Only the handful of operations the
# accumulator needs are implemented; all are branch-free float arithmetic.

_SPLITTER = 134217729.0  # 2**27 + 1, for Dekker's exact product split


def _two_sum(a: float, b: float) -> Tuple[float, float]:
    """fl(a+b) and its exact rounding error (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a: float, b: float) -> Tuple[float, float]:
    """Like :func:`_two_sum` but requires |a| >= |b| (or a == 0)."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float) -> Tuple[float, float]:
    """fl(a·b) and its exact rounding error (Dekker)."""
    p = a * b
    ta = _SPLITTER * a
    a_hi = ta - (ta - a)
    a_lo = a - a_hi
    tb = _SPLITTER * b
    b_hi = tb - (tb - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _dd_add(
    a_hi: float, a_lo: float, b_hi: float, b_lo: float
) -> Tuple[float, float]:
    """Double-double addition (error ~2⁻¹⁰⁶ relative)."""
    s, e = _two_sum(a_hi, b_hi)
    e += a_lo + b_lo
    return _fast_two_sum(s, e)


def _dd_sqr(a_hi: float, a_lo: float) -> Tuple[float, float]:
    """Square of a double-double."""
    p, e = _two_prod(a_hi, a_hi)
    e += 2.0 * a_hi * a_lo + a_lo * a_lo
    return _fast_two_sum(p, e)


def _dd_div_int(a_hi: float, a_lo: float, n: int) -> Tuple[float, float]:
    """Double-double divided by a positive integer."""
    fn = float(n)
    q1 = a_hi / fn
    p, pe = _two_prod(q1, fn)
    r_hi, r_lo = _dd_add(a_hi, a_lo, -p, -pe)
    q2 = (r_hi + r_lo) / fn
    return _fast_two_sum(q1, q2)


@dataclass(frozen=True)
class ProportionEstimate:
    """A proportion with its Wilson interval."""

    value: float
    low: float
    high: float
    trials: int

    @classmethod
    def from_counts(
        cls, successes: int, trials: int, confidence: float = 0.95
    ) -> "ProportionEstimate":
        low, high = wilson_interval(successes, trials, confidence)
        return cls(value=successes / trials, low=low, high=high, trials=trials)


@dataclass(frozen=True)
class MeanEstimate:
    """A sample mean with its confidence interval (NaN when empty)."""

    value: float
    low: float
    high: float
    count: int

    @classmethod
    def from_values(
        cls, values: Iterable[float], confidence: float = 0.95
    ) -> "MeanEstimate":
        """Estimate from raw observations (list, tuple or NumPy array).

        Streams through a :class:`MomentAccumulator` — no copy of
        ``values`` is made, and arrays are consumed element-wise.
        """
        return MomentAccumulator(values).estimate(confidence)

    @property
    def is_nan(self) -> bool:
        return math.isnan(self.value)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ParameterError(f"count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class CellEstimate:
    """Aggregated outcome of one Monte-Carlo cell."""

    p_timely: ProportionEstimate
    energy_timely: MeanEstimate
    energy_all: MeanEstimate
    mean_finish_time_timely: float
    mean_detected_faults: float
    mean_checkpoints: float
    mean_sub_checkpoints: float
    reps: int

    @property
    def p(self) -> float:
        """``P`` — the paper's probability of timely completion."""
        return self.p_timely.value

    @property
    def e(self) -> float:
        """``E`` — the paper's energy (mean over timely runs; NaN if none)."""
        return self.energy_timely.value

    def same_values(self, other: "CellEstimate") -> bool:
        """Field-for-field identity, treating NaN as equal to NaN.

        Dataclass ``==`` happens to hold for NaN-bearing estimates in
        CPython (every NaN here is the ``math.nan`` singleton, and
        tuple comparison short-circuits on identity), but that is an
        implementation accident.  Determinism checks should use this:
        ``repr`` round-trips floats exactly and spells every NaN
        ``nan``, so repr equality is value identity with NaN == NaN.
        """
        return repr(self) == repr(other)


class ProportionAccumulator:
    """Mergeable success/trial counter finalising to a Wilson estimate.

    Counts are integers, so merging is exact by construction.
    """

    __slots__ = ("successes", "trials")

    def __init__(self, successes: int = 0, trials: int = 0) -> None:
        if trials < 0 or not 0 <= successes <= max(trials, 0):
            raise ParameterError(
                f"need 0 <= successes <= trials, got {successes}/{trials}"
            )
        self.successes = successes
        self.trials = trials

    def add(self, success: bool) -> None:
        """Record one trial."""
        self.trials += 1
        if success:
            self.successes += 1

    def add_many(self, successes) -> "ProportionAccumulator":
        """Record a whole block of trials (a bool array/sequence).

        Integer counting, so this is exactly ``add`` in a loop — the
        vectorised entry point the slab path folds its timely flags
        through.
        """
        self.trials += len(successes)
        if _is_ndarray(successes):
            import numpy as np

            self.successes += int(np.count_nonzero(successes))
        else:
            self.successes += sum(1 for s in successes if s)
        return self

    def merge(self, other: "ProportionAccumulator") -> "ProportionAccumulator":
        """Fold another accumulator's counts into this one."""
        self.successes += other.successes
        self.trials += other.trials
        return self

    def estimate(self, confidence: float = 0.95) -> ProportionEstimate:
        """Finalise into a :class:`ProportionEstimate`."""
        return ProportionEstimate.from_counts(
            self.successes, self.trials, confidence
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProportionAccumulator({self.successes}/{self.trials})"


class MomentAccumulator:
    """Streaming moment statistics with an O(1), mergeable payload.

    State is ``(count, Σx, Σx²)`` with both sums held in double-double
    (see module docstring).  :meth:`merge` implements the Chan et al.
    parallel combine in its sum-of-powers form — partial sums add,
    counts add — which makes the merge associative to ~2⁻¹⁰⁶, far below
    final double rounding.  Observations are never stored: a merged
    accumulator finalises to the estimate a single pass over the same
    observations would give, including the paper's ``NaN`` convention
    when no observation was ever added (e.g. the timely-energy mean of
    a cell where every block came back with zero timely runs).
    """

    __slots__ = ("count", "_sum_hi", "_sum_lo", "_sq_hi", "_sq_lo")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.count = 0
        self._sum_hi = 0.0
        self._sum_lo = 0.0
        self._sq_hi = 0.0
        self._sq_lo = 0.0
        self.add_many(values)

    # -- accumulation --------------------------------------------------

    def add(self, value: float) -> None:
        """Record one observation."""
        x = float(value)
        self.count += 1
        self._sum_hi, self._sum_lo = _dd_add(self._sum_hi, self._sum_lo, x, 0.0)
        p, e = _two_prod(x, x)
        self._sq_hi, self._sq_lo = _dd_add(self._sq_hi, self._sq_lo, p, e)

    def add_many(self, values: Iterable[float]) -> "MomentAccumulator":
        """Record observations in order (hot path for NumPy arrays).

        For a 1-D NumPy array the order-independent per-element work —
        the squares and their Dekker error terms — is vectorised up
        front (:meth:`_add_array`), leaving only the order-*dependent*
        double-double fold in the Python loop.  Both paths perform the
        exact float operations of repeated :meth:`add` in the same
        order, so ``add`` and ``add_many`` are bit-identical per
        element (pinned by ``tests/test_metrics.py``).
        """
        if _is_ndarray(values) and values.ndim == 1:
            return self._add_array(values)
        count = 0
        s_hi, s_lo = self._sum_hi, self._sum_lo
        q_hi, q_lo = self._sq_hi, self._sq_lo
        for value in values:
            x = float(value)
            count += 1
            # _dd_add(s_hi, s_lo, x, 0.0), inlined (same op order, so
            # add() and add_many() are bit-identical per element).
            s = s_hi + x
            t = s - s_hi
            e = (s_hi - (s - t)) + (x - t)
            e += s_lo + 0.0
            s_hi = s + e
            s_lo = e - (s_hi - s)
            # _two_prod(x, x) then _dd_add(q_hi, q_lo, p, pe), inlined.
            p = x * x
            tx = _SPLITTER * x
            xh = tx - (tx - x)
            xl = x - xh
            pe = ((xh * xh - p) + xh * xl + xl * xh) + xl * xl
            q = q_hi + p
            tq = q - q_hi
            qe = (q_hi - (q - tq)) + (p - tq)
            qe += q_lo + pe
            q_hi = q + qe
            q_lo = qe - (q_hi - q)
        self.count += count
        self._sum_hi, self._sum_lo = s_hi, s_lo
        self._sq_hi, self._sq_lo = q_hi, q_lo
        return self

    def _add_array(self, values) -> "MomentAccumulator":
        """NumPy block path: vectorised Dekker products, scalar fold.

        ``x²`` and its exact rounding error are elementwise (no
        reassociation), so computing them as whole-array expressions
        yields bit-for-bit the per-element values of the scalar loop;
        the double-double accumulation itself is order-dependent and
        stays a left-to-right fold over Python floats.
        """
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        n = int(arr.size)
        if n == 0:
            return self
        p_arr = arr * arr
        tx = _SPLITTER * arr
        xh = tx - (tx - arr)
        xl = arr - xh
        pe_arr = ((xh * xh - p_arr) + xh * xl + xl * xh) + xl * xl
        s_hi, s_lo = self._sum_hi, self._sum_lo
        q_hi, q_lo = self._sq_hi, self._sq_lo
        for x, p, pe in zip(arr.tolist(), p_arr.tolist(), pe_arr.tolist()):
            # _dd_add(s_hi, s_lo, x, 0.0), inlined — the op order of
            # add(), so the fold is bit-identical to repeated add().
            s = s_hi + x
            t = s - s_hi
            e = (s_hi - (s - t)) + (x - t)
            e += s_lo + 0.0
            s_hi = s + e
            s_lo = e - (s_hi - s)
            # _dd_add(q_hi, q_lo, p, pe), inlined.
            q = q_hi + p
            tq = q - q_hi
            qe = (q_hi - (q - tq)) + (p - tq)
            qe += q_lo + pe
            q_hi = q + qe
            q_lo = qe - (q_hi - q)
        self.count += n
        self._sum_hi, self._sum_lo = s_hi, s_lo
        self._sq_hi, self._sq_lo = q_hi, q_lo
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Fold another accumulator in (Chan-style parallel combine)."""
        self.count += other.count
        self._sum_hi, self._sum_lo = _dd_add(
            self._sum_hi, self._sum_lo, other._sum_hi, other._sum_lo
        )
        self._sq_hi, self._sq_lo = _dd_add(
            self._sq_hi, self._sq_lo, other._sq_hi, other._sq_lo
        )
        return self

    # -- statistics ----------------------------------------------------

    @property
    def sum(self) -> float:
        """Σx, rounded to double."""
        return self._sum_hi + self._sum_lo

    @property
    def mean(self) -> float:
        """The sample mean (NaN when empty)."""
        if self.count == 0:
            return math.nan
        hi, lo = _dd_div_int(self._sum_hi, self._sum_lo, self.count)
        return hi + lo

    @property
    def m2(self) -> float:
        """Σ(x - mean)² — the centred second moment Chan's M2.

        Computed as ``Σx² - (Σx)²/n`` entirely in double-double, so the
        subtraction cancels compensated bits, not information (see
        module docstring); clamped at 0 against residual rounding.
        """
        if self.count == 0:
            return 0.0
        s2_hi, s2_lo = _dd_sqr(self._sum_hi, self._sum_lo)
        s2n_hi, s2n_lo = _dd_div_int(s2_hi, s2_lo, self.count)
        m2_hi, m2_lo = _dd_add(self._sq_hi, self._sq_lo, -s2n_hi, -s2n_lo)
        return max(0.0, m2_hi + m2_lo)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN below two observations)."""
        if self.count < 2:
            return math.nan
        return self.m2 / (self.count - 1)

    def estimate(self, confidence: float = 0.95) -> MeanEstimate:
        """Finalise; an empty accumulator yields the NaN estimate."""
        if self.count == 0:
            return MeanEstimate(
                value=math.nan, low=math.nan, high=math.nan, count=0
            )
        mean = self.mean
        if self.count == 1:
            return MeanEstimate(value=mean, low=mean, high=mean, count=1)
        half = _z_value(confidence) * math.sqrt(self.variance / self.count)
        return MeanEstimate(
            value=mean, low=mean - half, high=mean + half, count=self.count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MomentAccumulator(n={self.count}, mean={self.mean!r})"
