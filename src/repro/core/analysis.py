"""Closed-form predictions used to cross-validate the simulator.

For *static* schemes (fixed speed, fixed interval) the run decomposes
into independent per-interval renewal processes, so both the expected
completion time and the probability of finishing by the deadline have
closed forms.  The test-suite holds the Monte-Carlo executor to these
predictions — a strong end-to-end correctness check of fault injection,
detection, rollback and timing.

Model (matching the executor's defaults): faults arrive Poisson at
``rate`` in wall-clock time; an interval of useful length ``L`` plus
checkpoint ``C`` succeeds iff no fault lands in its execution portion
(probability ``exp(−rate·L)``); a failed attempt costs the same
``L + C`` (detection at the closing comparison) plus ``t_r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core import renewal
from repro.errors import ParameterError

__all__ = [
    "StaticSchedule",
    "static_schedule",
    "static_expected_time",
    "static_timely_probability",
    "expected_time_with_subdivision",
]


@dataclass(frozen=True)
class StaticSchedule:
    """The interval layout of a static scheme at a fixed speed."""

    interval_lengths: List[float]  # useful time per interval (at speed f)
    checkpoint_cost: float  # C = c/f
    rollback_cost: float  # t_r/f
    rate: float

    @property
    def n_intervals(self) -> int:
        return len(self.interval_lengths)

    @property
    def work(self) -> float:
        return sum(self.interval_lengths)


def static_schedule(
    work_time: float,
    interval: float,
    *,
    checkpoint_cost: float,
    rate: float,
    rollback_cost: float = 0.0,
) -> StaticSchedule:
    """Split ``work_time`` into equal intervals with a shorter tail.

    Mirrors the executor: every interval is ``interval`` long except the
    final one, which takes the remainder; each is closed by a CSCP.
    """
    if work_time <= 0:
        raise ParameterError(f"work_time must be > 0, got {work_time}")
    if interval <= 0:
        raise ParameterError(f"interval must be > 0, got {interval}")
    lengths = []
    remaining = work_time
    while remaining > 1e-12:
        span = min(interval, remaining)
        lengths.append(span)
        remaining -= span
    return StaticSchedule(
        interval_lengths=lengths,
        checkpoint_cost=checkpoint_cost,
        rollback_cost=rollback_cost,
        rate=rate,
    )


def static_expected_time(schedule: StaticSchedule) -> float:
    """Exact expected completion time (deadline ignored).

    Each interval is an independent renewal process with expected time
    ``(L + C)·e^{rate·L} + t_r·(e^{rate·L} − 1)`` (geometric retries with
    success probability ``e^{−rate·L}``); the total is the sum.
    """
    total = 0.0
    for length in schedule.interval_lengths:
        boost = math.exp(schedule.rate * length)
        total += (length + schedule.checkpoint_cost) * boost
        total += schedule.rollback_cost * (boost - 1.0)
    return total


def static_timely_probability(schedule: StaticSchedule, deadline: float) -> float:
    """Exact P(completion time ≤ deadline).

    With all interval lengths equal (within tolerance) the total time
    is ``(n + F)·(L + C) + F·t_r`` with ``F`` the total number of failed
    attempts, and ``F`` follows a negative binomial with ``n`` successes
    and success probability ``e^{−rate·L}``: the answer is its CDF at
    the number of affordable failures (SciPy's ``nbinom``, imported
    here, the only place ``src/`` needs SciPy).  When that probability
    underflows to 0 no attempt can succeed and the answer is 0.  Any
    other layout (a shorter tail) is computed exactly by
    :func:`_timely_probability_dp`.
    """
    if deadline <= 0:
        return 0.0
    lengths = schedule.interval_lengths
    if not lengths:
        return 1.0
    n = len(lengths)
    length = lengths[0]
    uniform = all(abs(l - length) < 1e-9 for l in lengths)
    if not uniform:
        # Mixed layout: exact computation by dynamic programming over
        # the (small) number of affordable failures per interval type.
        return _timely_probability_dp(schedule, deadline)
    attempt = length + schedule.checkpoint_cost
    failure_extra = attempt + schedule.rollback_cost
    budget = deadline - n * attempt
    if budget < 0:
        return 0.0
    allowed_failures = int(math.floor(budget / failure_extra + 1e-12))
    p_success = math.exp(-schedule.rate * length)
    if p_success >= 1.0:
        return 1.0
    if p_success == 0.0:
        return 0.0
    from scipy.stats import nbinom

    return float(nbinom.cdf(allowed_failures, n, p_success))


def _timely_probability_dp(schedule: StaticSchedule, deadline: float) -> float:
    """Exact timely probability for non-uniform interval layouts.

    State: probability mass over elapsed-time quantised per failure
    pattern.  Failure counts are truncated where the deadline is already
    blown, so the state space stays tiny for realistic parameters.
    """
    states = {0.0: 1.0}  # elapsed time -> probability
    for length in schedule.interval_lengths:
        attempt = length + schedule.checkpoint_cost
        extra = attempt + schedule.rollback_cost
        p = math.exp(-schedule.rate * length)
        next_states: dict = {}
        for elapsed, prob in states.items():
            base = elapsed + attempt
            if base > deadline:
                continue  # this path can never finish on time
            failures = 0
            weight = prob
            while True:
                t = base + failures * extra
                if t > deadline:
                    break
                mass = weight * p * (1.0 - p) ** failures
                key = round(t, 9)
                next_states[key] = next_states.get(key, 0.0) + mass
                failures += 1
                if failures > 10_000:  # pragma: no cover - safety net
                    break
        states = next_states
        if not states:
            return 0.0
    return min(1.0, sum(states.values()))


def expected_time_with_subdivision(
    n_intervals: int,
    interval: float,
    *,
    m: int,
    kind: str,
    rate: float,
    store: float,
    compare: float,
    rollback: float = 0.0,
) -> float:
    """Task-level expected time ``n·R1(m)`` / ``n·R2(m)`` (paper §2).

    ``kind`` selects the SCP (``'scp'``) or CCP (``'ccp'``) renewal
    model.  This is ``R_SCP(n) = n·R1(m)`` / ``R_CCP(n) = n·R2(m)`` from
    the paper, pinned by ``tests/test_analysis.py``.
    """
    if n_intervals < 1:
        raise ParameterError(f"n_intervals must be >= 1, got {n_intervals}")
    if kind == "scp":
        per = renewal.scp_interval_time_for_m(
            m, span=interval, rate=rate, store=store, compare=compare,
            rollback=rollback,
        )
    elif kind == "ccp":
        per = renewal.ccp_interval_time_for_m(
            m, span=interval, rate=rate, store=store, compare=compare,
            rollback=rollback,
        )
    else:
        raise ParameterError(f"kind must be 'scp' or 'ccp', got {kind!r}")
    return n_intervals * per
