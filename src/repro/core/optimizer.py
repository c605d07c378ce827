"""Optimal checkpoint-subdivision procedures (paper fig. 2).

``num_scp`` / ``num_ccp`` compute the number of sub-intervals ``m`` that
minimises the expected CSCP-interval time ``R1(m)`` / ``R2(m)``:

1. find the continuous minimiser ``T̃`` of the renewal model over
   ``(0, T]`` — closed form for SCPs, bounded Brent search for CCPs;
2. if ``T̃ ≥ T`` the interval is not subdivided (``m = 1``);
3. otherwise round ``T/T̃`` down and compare ``R(m)`` with ``R(m+1)``,
   keeping the smaller (paper fig. 2 lines 3-6).

The bounded Brent search is an in-repo port of SciPy 1.17's
``minimize_scalar(method="bounded")`` (:func:`_bounded_brent`), so the
runtime needs numpy only; ``tests/test_optimizer.py`` pins it to SciPy
plan for plan.

Both procedures are memoised per process (:data:`MEMO_SIZE` entries,
least recently used first out): the adaptive schemes replan after every
detected fault, and across a table's reps almost every replan repeats
an earlier argument tuple.  They are pure functions of their arguments,
and the memo keys on the exact arguments *and their types*, so a hit
returns the very plan a fresh solve would; an exception is never
cached.  The unmemoised procedures stay reachable as ``__wrapped__``.

Brute-force search over all integers is provided for validation and as
a safety net for callers who prefer exactness over speed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core import renewal
from repro.errors import ParameterError

__all__ = [
    "SubdivisionPlan",
    "num_scp",
    "num_ccp",
    "brute_force_num_scp",
    "brute_force_num_ccp",
    "DEFAULT_MAX_SUBDIVISIONS",
    "MEMO_SIZE",
]

#: Upper clamp on the subdivision count.  Only reachable for degenerate
#: inputs (e.g. free stores, ``t_s = 0``); real parameterisations stay
#: far below it.
DEFAULT_MAX_SUBDIVISIONS = 4096

#: Entries in each of the ``num_scp`` / ``num_ccp`` memos.  At 1000 reps
#: per cell, tables 3a and 4a make ~184k ``num_ccp`` calls over ~4.2k
#: distinct argument tuples, about 66 per cell.  A block runs one
#: cell's reps back to back, so the working set is one cell's tuples.
MEMO_SIZE = 4096


@dataclass(frozen=True)
class SubdivisionPlan:
    """Result of a subdivision optimisation.

    Attributes
    ----------
    m:
        Number of equal sub-intervals of the CSCP interval (``m − 1``
        additional SCPs/CCPs are inserted).
    sublength:
        ``T/m`` — length of each sub-interval (time units).
    expected_time:
        Modelled expected time to complete the CSCP interval.
    """

    m: int
    sublength: float
    expected_time: float


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
def num_scp(
    span: float,
    *,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
    max_m: int = DEFAULT_MAX_SUBDIVISIONS,
) -> SubdivisionPlan:
    """Optimal SCP subdivision of a CSCP interval (paper ``num_SCP``).

    Uses the closed-form continuous minimiser
    ``T̃1 = sqrt(T·t_s·coth(rT/2))`` (see
    :func:`repro.core.renewal.scp_optimal_sublength`) followed by the
    floor/ceil comparison of paper fig. 2.

    Degenerate inputs: with ``rate = 0`` extra stores can only cost
    time, so ``m = 1``; with ``store = 0`` stores are free and the model
    improves monotonically with ``m`` — the count is clamped to
    ``max_m``.
    """
    _check_args(span, rate, max_m)

    def objective(m: int) -> float:
        return renewal.scp_interval_time_for_m(
            m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
        )

    if rate == 0:
        return SubdivisionPlan(m=1, sublength=span, expected_time=objective(1))
    if store == 0:
        return SubdivisionPlan(
            m=max_m, sublength=span / max_m, expected_time=objective(max_m)
        )
    opt = renewal.scp_optimal_sublength(span, rate=rate, store=store)

    # Fig. 2's refinement inlined over an inlined R1: this sits on the
    # adaptive schemes' per-fault replan path, so the two candidate
    # evaluations share one argument validation and one ``expm1``
    # (both value-deterministic) while performing R1's float operations
    # in exactly scp_interval_time's order — tests/test_optimizer.py
    # pins exact agreement of the fast path with the objective.
    renewal._validate(span, rate, store, compare, rollback)
    refine = 0 < opt < span  # fig. 2's "else" branch (NaN/inf ⇒ m = 1)
    if refine:
        m = max(1, min(int(span / opt), max_m - 1))
    else:
        m = 1
    faults = renewal.expected_faults_per_interval(span, rate)

    def r1(m_int: int) -> float:
        # scp_interval_time(span / m_int, ...), op for op — including
        # recomputing the continuous m as span/sublength, whose float
        # value is *not* always m_int.
        sublength = span / m_int
        m_cont = span / sublength
        fault_free = span + m_cont * store + compare
        per_fault = (
            (span + sublength) / 2.0
            + (m_cont + 1.0) / 2.0 * store
            + compare
            + rollback
        )
        return fault_free + per_fault * faults

    best = r1(m)
    if refine:
        successor = r1(m + 1)
        if best > successor:
            m += 1
            best = successor
    return SubdivisionPlan(m=m, sublength=span / m, expected_time=best)


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
def num_ccp(
    span: float,
    *,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
    max_m: int = DEFAULT_MAX_SUBDIVISIONS,
) -> SubdivisionPlan:
    """Optimal CCP subdivision of a CSCP interval (paper ``num_CCP``).

    ``R2`` has no elementary continuous minimiser; the paper prescribes
    "the similar approach described in figure 2", which we realise with
    a bounded Brent search for ``T̃2`` over ``[T/max_m, T]`` followed by
    the same floor/ceil integer refinement.  The search is
    :func:`_bounded_brent`, an in-repo port of SciPy's
    ``minimize_scalar(method="bounded")`` that ``tests/test_optimizer.py``
    pins to SciPy plan for plan (exceptions included); if it fails (its
    evaluation cap, or NaN), ``T̃2 = T`` and ``m = 1``.

    With ``rate = 0`` extra comparisons are pure overhead, so ``m = 1``;
    with ``compare = 0`` they are free and ``m`` clamps to ``max_m``.
    """
    _check_args(span, rate, max_m)

    def objective(m: int) -> float:
        return renewal.ccp_interval_time_for_m(
            m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
        )

    if rate == 0:
        return SubdivisionPlan(m=1, sublength=span, expected_time=objective(1))
    if compare == 0:
        return SubdivisionPlan(
            m=max_m, sublength=span / max_m, expected_time=objective(max_m)
        )

    # As in num_scp: fig. 2's refinement inlined over an inlined R2, and
    # ccp_interval_time_for_m(m) is r2(span / m) op for op.  A failed
    # search (evaluation cap or NaN) means T̃ = T, i.e. m = 1.
    r2 = _ccp_time(span, rate, store, compare, rollback)
    opt, success = _bounded_brent(r2, span / max_m, span)
    refine = success and 0 < opt < span
    if refine:
        m = max(1, min(int(span / opt), max_m - 1))
    else:
        m = 1
    best = r2(span / m)
    if refine:
        successor = r2(span / (m + 1))
        if best > successor:
            m += 1
            best = successor
    return SubdivisionPlan(m=m, sublength=span / m, expected_time=best)


def _ccp_time(
    span: float, rate: float, store: float, compare: float, rollback: float
) -> Callable[[float], float]:
    """``R2`` as a function of ``T2`` alone, for ``rate > 0``.

    ``renewal.ccp_interval_time(t2, ...)`` op for op, with its argument
    validation and ``e^{rT} − 1`` done once here instead of at each of
    the Brent search's evaluations (both are value-deterministic, and
    an error they raise is the one the first evaluation would raise).
    ``tests/test_optimizer.py`` pins exact agreement.
    """
    renewal._validate(span, rate, store, compare, rollback)
    faults = renewal.expected_faults_per_interval(span, rate)

    def r2(sublength: float) -> float:
        if not 0 < sublength <= span:
            raise ParameterError(
                f"sublength must be in (0, span]; got {sublength} with span={span}"
            )
        attempts = faults / (-math.expm1(-rate * sublength))
        return (
            (sublength + compare) * attempts
            + store * math.exp(rate * sublength)
            + rollback * faults
        )

    return r2


#: SciPy's ``minimize_scalar(method="bounded")`` constants at its
#: defaults: absolute tolerance in x, evaluation cap, ``sqrt`` of its
#: machine epsilon and the golden-section ratio.
_XATOL = 1e-5
_MAX_EVALUATIONS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(value: float) -> float:
    """``np.sign(value) + (value == 0)``: +1 at zero, NaN passes through."""
    if value >= 0:
        return 1.0
    return -1.0 if value < 0 else value


def _maximum(u: float, v: float) -> float:
    """``np.maximum(u, v)``: NaN if either is NaN, ``v`` on a tie."""
    return u if u > v or u != u else v


def _bounded_brent(
    func: Callable[[float], float], a: float, b: float
) -> Tuple[float, bool]:
    """Minimise ``func`` over ``[a, b]``; return ``(x, success)``.

    A port of SciPy 1.17's ``_minimize_scalar_bounded`` at its defaults,
    statement for statement on Python floats: the same branch order
    between parabolic and golden-section steps, the same bracket
    updates and the same NaN handling, so every trial point and the
    returned ``x`` are SciPy's bit for bit.  ``success`` is false when
    the evaluation cap is hit or ``x``, ``f(x)`` or the last trial value
    is NaN.  SciPy's checks that the bounds are finite and ordered are
    left out: ``num_ccp`` passes the finite ``T/max_m <= T``.
    """
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + _sign(rat) * _maximum(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAX_EVALUATIONS:
            return xf, False

    return xf, not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))


def brute_force_num_scp(
    span: float,
    *,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
    max_m: int = DEFAULT_MAX_SUBDIVISIONS,
) -> SubdivisionPlan:
    """Exact integer argmin of ``R1(m)`` by exhaustive search.

    ``R1(m)`` is convex in ``m`` for positive costs, so the scan stops
    as soon as the objective starts increasing.
    """
    _check_args(span, rate, max_m)

    def objective(m: int) -> float:
        return renewal.scp_interval_time_for_m(
            m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
        )

    return _scan(span, objective, max_m)


def brute_force_num_ccp(
    span: float,
    *,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
    max_m: int = DEFAULT_MAX_SUBDIVISIONS,
) -> SubdivisionPlan:
    """Exact integer argmin of ``R2(m)`` by exhaustive search."""
    _check_args(span, rate, max_m)

    def objective(m: int) -> float:
        return renewal.ccp_interval_time_for_m(
            m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
        )

    return _scan(span, objective, max_m)


def _scan(
    span: float, objective: Callable[[int], float], max_m: int
) -> SubdivisionPlan:
    best_m, best_val = 1, objective(1)
    rising = 0
    for m in range(2, max_m + 1):
        val = objective(m)
        if val < best_val:
            best_m, best_val = m, val
            rising = 0
        else:
            # The objectives are unimodal in m; a short patience window
            # guards against flat plateaus from floating-point noise.
            rising += 1
            if rising >= 8:
                break
    return SubdivisionPlan(m=best_m, sublength=span / best_m, expected_time=best_val)


def _check_args(span: float, rate: float, max_m: int) -> None:
    if not span > 0 or not math.isfinite(span):
        raise ParameterError(f"span must be positive and finite, got {span}")
    if rate < 0:
        raise ParameterError(f"rate must be >= 0, got {rate}")
    if max_m < 1:
        raise ParameterError(f"max_m must be >= 1, got {max_m}")
