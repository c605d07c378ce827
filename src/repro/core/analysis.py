"""Closed-form predictions used to cross-validate the simulator.

For *static* schemes (fixed speed, fixed interval) the run decomposes
into independent per-interval renewal processes, so the expected
completion time, the probability of finishing by the deadline and the
executor's per-run counters all have exact answers.  The test-suite
holds the Monte-Carlo executor to these predictions — a strong
end-to-end correctness check of fault injection, detection, rollback
and timing — and ``fast_static`` cells are computed from
:func:`static_outcome` instead of being sampled.

Model (matching the executor's defaults): faults arrive Poisson at
``rate`` in wall-clock time; an interval of useful length ``L`` plus
checkpoint ``C`` succeeds iff no fault lands in its execution portion
(probability ``exp(−rate·L)``); a failed attempt costs the same
``L + C`` (detection at the closing comparison) plus ``t_r``.  Before
every attempt the run is abandoned when its remaining fault-free work
no longer fits the time left (the executor's ``Rt > Rd`` check).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import List

from repro.core import renewal
from repro.errors import ParameterError

__all__ = [
    "StaticSchedule",
    "StaticOutcome",
    "static_schedule",
    "static_expected_time",
    "static_outcome",
    "static_timely_probability",
    "expected_time_with_subdivision",
]

#: Work at or below this counts as done, and a run finishing this close
#: past its deadline is still timely: the executor's ``_CYCLE_EPS``.
_DONE_EPS = 1e-9


@dataclass(frozen=True)
class StaticSchedule:
    """The interval layout of a static scheme at a fixed speed."""

    interval_lengths: List[float]  # useful time per interval (at speed f)
    checkpoint_cost: float  # C = c/f
    rollback_cost: float  # t_r/f
    rate: float
    work: float  # the split work, exact (the lengths' sum may round)

    @property
    def n_intervals(self) -> int:
        return len(self.interval_lengths)


def static_schedule(
    work_time: float,
    interval: float,
    *,
    checkpoint_cost: float,
    rate: float,
    rollback_cost: float = 0.0,
) -> StaticSchedule:
    """Split ``work_time`` into equal intervals with a shorter tail.

    Peels exactly as the executor does: while more than ``1e-9`` of work
    remains, a remainder shorter than ``interval`` becomes the tail and
    anything else runs one full ``interval``; each is closed by a CSCP.
    """
    if work_time <= 0:
        raise ParameterError(f"work_time must be > 0, got {work_time}")
    if interval <= 0:
        raise ParameterError(f"interval must be > 0, got {interval}")
    lengths = []
    remaining = work_time
    while remaining > _DONE_EPS:
        if remaining < interval:
            lengths.append(remaining)
            break
        lengths.append(interval)
        remaining -= interval
    return StaticSchedule(
        interval_lengths=lengths,
        checkpoint_cost=checkpoint_cost,
        rollback_cost=rollback_cost,
        rate=rate,
        work=work_time,
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


@dataclass(frozen=True)
class StaticOutcome:
    """The exact expectations of one static run (:func:`static_outcome`)."""

    p_timely: float  # P(timely)
    finish_timely: float  # E[finish time | timely]; NaN when p_timely == 0
    end_time: float  # E[time at which the run completes or is abandoned]
    detected_faults: float  # E[detected faults] (= failed attempts)
    checkpoints: float  # E[closing CSCPs] (= attempts)


def static_outcome(schedule: StaticSchedule, deadline: float) -> StaticOutcome:
    """Exact outcome of a static run under the executor's rules.

    A walk over the run's reachable states.  Within a stretch of equal
    intervals of length ``L``, the state after ``k`` of them with ``g``
    failed attempts has its clock at ``t0 + (k+g)·(L+C) + g·t_r``, and
    its mass sums every order of those outcomes.  Before each attempt
    the run is abandoned when its remaining fault-free work exceeds the
    time left; it ends there or at its last success, and is timely when
    complete within ``1e-9`` of the deadline.  The deadline bounds the
    failures a state can hold, so the walk is finite for any rate.
    """
    if not math.isfinite(deadline):
        raise ParameterError(f"deadline must be finite, got {deadline}")
    cost = schedule.checkpoint_cost
    rollback = schedule.rollback_cost
    # Consecutive equal intervals form one stretch; the executor's
    # layout has at most two (the full intervals, then a shorter tail).
    stretches = [
        (length, len(list(group)))
        for length, group in itertools.groupby(schedule.interval_lengths)
    ]
    # The remaining work before each interval, as the executor peels it.
    work_left = list(
        itertools.accumulate(schedule.interval_lengths[:-1],
                             operator.sub, initial=schedule.work)
    )
    end = faults = attempts = 0.0

    def stop(mass: float, clock: float, failures: int, tries: int) -> None:
        nonlocal end, faults, attempts
        end += mass * clock
        faults += mass * failures
        attempts += mass * tries

    # States at stretch boundaries: (clock, mass, failures so far).
    states = [(0.0, 1.0, 0)]
    done = 0  # intervals in earlier stretches
    for length, count in stretches:
        attempt = length + cost
        retry = attempt + rollback
        p = math.exp(-schedule.rate * length)
        q = -math.expm1(-schedule.rate * length)
        next_states = []
        for start, mass, failures in states:
            # arriving[g]: mass reaching the next interval after g
            # failed attempts in this stretch.
            arriving = [mass]
            for k in range(count):
                left = work_left[done + k]
                base = start + k * attempt
                alive = []
                carry = 0.0
                g = 0
                while True:
                    here = carry * q
                    if g < len(arriving):
                        here += arriving[g]
                    elif here == 0.0:
                        break
                    clock = base + g * retry
                    if left > deadline - clock:
                        # Abandoned, as is everything after it: a later
                        # clock, the same work left.
                        tries = done + k + failures + g
                        stop(here, clock, failures + g, tries)
                        carry = 0.0
                    else:
                        alive.append(here * p)
                        carry = here
                    g += 1
                arriving = alive
            next_states.extend(
                (start + count * attempt + g * retry, mass_g, failures + g)
                for g, mass_g in enumerate(arriving)
            )
        states = next_states
        done += count

    p_timely = finish = 0.0
    for clock, mass, failures in states:
        stop(mass, clock, failures, done + failures)
        if clock <= deadline + _DONE_EPS:
            p_timely += mass
            finish += mass * clock
    return StaticOutcome(
        p_timely=p_timely,
        finish_timely=finish / p_timely if p_timely > 0.0 else math.nan,
        end_time=end,
        detected_faults=faults,
        checkpoints=attempts,
    )


def static_timely_probability(
    schedule: StaticSchedule, deadline: float
) -> float:
    """Exact P(completion time ≤ deadline): :func:`static_outcome`'s P."""
    return static_outcome(schedule, deadline).p_timely


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
