"""Renewal-equation models for the expected time of one CSCP interval.

One CSCP interval spans ``T`` time units of useful work and is closed by
a compare-and-store checkpoint.  It may be subdivided by ``m − 1``
additional checkpoints into sub-intervals of length ``T/m``:

* **SCP scheme** (paper §2.1, eq. 1): the extra checkpoints *store*
  state; faults are detected only at the closing CSCP comparison, and
  the pair rolls back to the last store written before the first fault.
* **CCP scheme** (paper §2.2, eq. 2): the extra checkpoints *compare*
  states; faults are detected early (at the next comparison) but the
  only restorable state is the opening CSCP, so the whole interval is
  re-executed.

``rate`` is the state-divergence rate seen by the comparison logic.  The
paper's analysis writes ``2λ`` for a DMR pair with per-processor fault
rate ``λ``; its simulation injects a single system-level stream of rate
``λ``.  Callers choose (see ``AdaptiveConfig.analysis_rate_factor``).

All costs and lengths are in consistent time units at the current speed.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError

__all__ = [
    "scp_interval_time",
    "scp_interval_time_for_m",
    "ccp_interval_time",
    "ccp_interval_time_for_m",
    "cscp_interval_time",
    "scp_optimal_sublength",
    "ccp_interval_time_derivative",
    "expected_faults_per_interval",
]


def _validate(span: float, rate: float, store: float, compare: float, rollback: float) -> None:
    if not span > 0:
        raise ParameterError(f"span must be > 0, got {span}")
    if rate < 0:
        raise ParameterError(f"rate must be >= 0, got {rate}")
    if store < 0 or compare < 0 or rollback < 0:
        raise ParameterError("checkpoint costs must be >= 0")


def expected_faults_per_interval(span: float, rate: float) -> float:
    """``e^{r·T} − 1`` — expected detected faults per completed interval.

    This is exact for a single CSCP interval (renewal argument: the
    expected number of attempts is ``e^{rT}``) and is the fault-count
    factor the paper's closed forms use for subdivided intervals.
    Uses ``expm1`` for accuracy at small ``r·T``.
    """
    if span < 0:
        raise ParameterError(f"span must be >= 0, got {span}")
    if rate < 0:
        raise ParameterError(f"rate must be >= 0, got {rate}")
    return math.expm1(rate * span)


def scp_interval_time(
    sublength: float,
    *,
    span: float,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
) -> float:
    """``R1(T1)`` — expected time of one CSCP interval with extra SCPs.

    Paper eq. (1), reconstructed from the renewal argument below:

    ``R1(T1) = T + m·t_s + t_cp
             + [ (T + T1)/2 + ((m+1)/2)·t_s + t_cp + t_r ]·(e^{rT} − 1)``

    with ``m = T/T1`` treated as continuous.  The three terms of the
    bracket are the expected wasted work (a fault strikes uniformly, is
    detected at the CSCP, and execution resumes from the store preceding
    it), the expected re-done stores, and the comparison + rollback paid
    per detected fault.

    Limiting behaviour (asserted in the tests):

    * ``T1 → 0+`` ⇒ ``R1 → ∞`` (stores dominate);
    * ``T1 = T`` ⇒ ``R1 = (T + t_s + t_cp)·e^{rT} + t_r·(e^{rT} − 1)``,
      the classical single-checkpoint renewal result.
    """
    _validate(span, rate, store, compare, rollback)
    if not 0 < sublength <= span:
        raise ParameterError(
            f"sublength must be in (0, span]; got {sublength} with span={span}"
        )
    m = span / sublength
    faults = expected_faults_per_interval(span, rate)
    fault_free = span + m * store + compare
    per_fault = (span + sublength) / 2.0 + (m + 1.0) / 2.0 * store + compare + rollback
    return fault_free + per_fault * faults


def scp_interval_time_for_m(
    m: int,
    *,
    span: float,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
) -> float:
    """``R1`` evaluated at the integer subdivision count ``m``."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return scp_interval_time(
        span / m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
    )


def ccp_interval_time(
    sublength: float,
    *,
    span: float,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
) -> float:
    """``R2(T2)`` — expected time of one CSCP interval with extra CCPs.

    Paper eq. (2), reconstructed from the renewal argument below:

    ``R2(T2) = t_s·e^{rT2}
             + (T2 + t_cp)·(e^{rT} − 1)/(1 − e^{−rT2})
             + t_r·(e^{rT} − 1)``

    Derivation: each attempt at the interval walks sub-intervals of
    length ``T2``, comparing after each; a fault in a sub-interval is
    caught at its closing comparison and restarts the interval.  Solving
    the renewal equation exactly (geometric retries with detection lag
    ≤ one sub-interval) yields the closed form above.

    Limiting behaviour (asserted in the tests):

    * ``T2 → 0+`` ⇒ ``R2 → ∞`` (comparisons dominate);
    * ``T2 = T`` ⇒ ``R2 = (T + t_s + t_cp)·e^{rT} + t_r·(e^{rT} − 1)``.

    For ``rate = 0`` the fault terms vanish and
    ``R2 = t_s + m·(T2 + t_cp)`` with ``m = T/T2``.
    """
    _validate(span, rate, store, compare, rollback)
    if not 0 < sublength <= span:
        raise ParameterError(
            f"sublength must be in (0, span]; got {sublength} with span={span}"
        )
    if rate == 0:
        m = span / sublength
        return store + m * compare + span
    faults = expected_faults_per_interval(span, rate)
    # (e^{rT} − 1)/(1 − e^{−rT2}) is the expected TOTAL number of
    # sub-interval attempts (fault-free passes included); each costs
    # T2 + t_cp.  The store at the closing CSCP is executed once per
    # pass over the final sub-interval: expected e^{rT2} times.
    attempts = faults / (-math.expm1(-rate * sublength))
    return (
        (sublength + compare) * attempts
        + store * math.exp(rate * sublength)
        + rollback * faults
    )


def ccp_interval_time_for_m(
    m: int,
    *,
    span: float,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
) -> float:
    """``R2`` evaluated at the integer subdivision count ``m``."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return ccp_interval_time(
        span / m, span=span, rate=rate, store=store, compare=compare, rollback=rollback
    )


def cscp_interval_time(
    span: float,
    *,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
) -> float:
    """Expected time of a plain CSCP interval (no subdivision, ``m = 1``).

    ``R(T) = (T + t_s + t_cp)·e^{rT} + t_r·(e^{rT} − 1)`` — the exact
    renewal solution both R1 and R2 collapse to at ``m = 1``.  This is
    the per-interval model of the ``A_D`` (ADT_DVS) baseline and of the
    static Poisson / k-fault-tolerant schemes.
    """
    _validate(span, rate, store, compare, rollback)
    faults = expected_faults_per_interval(span, rate)
    return (span + store + compare) * (1.0 + faults) + rollback * faults


def scp_optimal_sublength(span: float, *, rate: float, store: float) -> float:
    """``T̃1 = sqrt(T·t_s·coth(rT/2))`` — continuous minimiser of R1.

    Obtained by differentiating eq. (1) with respect to ``T1`` (paper
    §2.1): the only ``T1``-dependent terms are ``(T/T1)·t_s`` (linear in
    ``m``) and ``(T1/2 + (T/T1)·t_s/2)·(e^{rT} − 1)``; setting the
    derivative to zero yields
    ``T1² = T·t_s·(e^{rT} + 1)/(e^{rT} − 1)``.

    For ``rate = 0`` or ``store = 0`` the minimiser degenerates (no
    fault pressure / free stores); we return ``inf`` and ``0``
    respectively and let :func:`repro.core.optimizer.num_scp` apply its
    clamps.
    """
    if not span > 0:
        raise ParameterError(f"span must be > 0, got {span}")
    if rate < 0 or store < 0:
        raise ParameterError("rate and store must be >= 0")
    if rate == 0:
        return math.inf
    if store == 0:
        return 0.0
    half = rate * span / 2.0
    coth = 1.0 / math.tanh(half)
    return math.sqrt(span * store * coth)


def ccp_interval_time_derivative(
    sublength: float,
    *,
    span: float,
    rate: float,
    store: float,
    compare: float,
) -> float:
    """``dR2/dT2`` — analytic derivative used to verify the optimiser.

    ``R2' = r·t_s·e^{rT2}
          + (e^{rT} − 1)·[(1 − e^{−rT2}) − (T2 + t_cp)·r·e^{−rT2}]
            /(1 − e^{−rT2})²``

    (for ``rate = 0`` the fault-free form ``t_s + T + (T/T2)·t_cp``
    differentiates to ``−T·t_cp/T2²``).
    """
    _validate(span, rate, store, compare, 0.0)
    if not 0 < sublength <= span:
        raise ParameterError("sublength must be in (0, span]")
    if rate == 0:
        return -span * compare / (sublength * sublength)
    faults = expected_faults_per_interval(span, rate)
    denom = -math.expm1(-rate * sublength)
    retry_part = (
        faults
        * (denom - (sublength + compare) * rate * math.exp(-rate * sublength))
        / (denom * denom)
    )
    store_part = rate * store * math.exp(rate * sublength)
    return retry_part + store_part
