"""The closed-form wall: every static cell of Tables 1-4, exact mode
against its analytic outcome, fast mode against exact mode, plus the
worst case under ``k`` scripted faults.

The exact executor samples each cell;
:func:`~repro.core.analysis.static_outcome` computes it without
sampling.  It shares no code with the sampler, so holding all 104
static cells to the closed form checks fault injection, detection,
rollback, abandonment, timing and energy at once.  Fast mode runs
static cells on the exact path block by block, so its estimates must
be exact mode's bit for bit.

Bands:

* the timely count lies inside the central ``1 - 1e-4`` exact binomial
  interval of the analytic ``P`` (a normal z would call 2 timely runs
  out of 256 at ``P ≈ 0.0008`` a 4-sigma event, which it is not);
* ``energy_all``, and ``e`` where at least 30 runs were timely, lie
  within 4.5 standard errors, taken from the estimate's own 95 %
  interval (see :func:`_z` for samples with no spread).

A failure names the worst cell and its statistic.

The worst case has no statistics at all.  A static scheme under ``k``
faults finishes latest when each fault lands just before the first
interval's closing CSCP, on successive retries: each costs the interval
``L``, its CSCP ``C`` and the rollback ``t_r`` (the hard-deadline
setting of Aupy et al., arXiv:1302.3720).  The exact executor must
finish at ``k·(L + C + t_r) + W + n·C`` wherever that meets the
deadline.
"""

import dataclasses
import math

import pytest

from repro.api.plans import table_cells
from repro.core.analysis import static_expected_time, static_outcome
from repro.experiments.config import all_table_specs
from repro.sim.executor import simulate_run
from repro.sim.faults import ScriptedFaults
from repro.sim.metrics import _z_value
from repro.sim.parallel import BatchRunner

REPS = 256
SEED = 2006
ALPHA = 1e-4
MAX_Z = 4.5
STATIC = ("Poisson", "k-f-t")


def _static_cells(fast_static):
    """(label, plan) for every static cell of Tables 1-4."""
    cells = []
    for spec in all_table_specs():
        for plan in table_cells(spec, reps=REPS, seed=SEED, fast_static=fast_static):
            if dict(plan.axes)["scheme"] in STATIC:
                cells.append((f"{spec.table_id} {plan.key}", plan))
    return cells


@pytest.fixture(scope="module")
def wall():
    """(label, exact estimate, analytic estimate, analytic job) per cell."""
    exact = _static_cells(fast_static=False)
    analytic = _static_cells(fast_static=True)
    runner = BatchRunner()
    sampled = runner.run_cells([plan.job for _, plan in exact])
    closed = runner.run_cells([plan.job for _, plan in analytic])
    return [
        (label, ours, theirs, plan.job)
        for (label, plan), ours, theirs in zip(analytic, sampled, closed)
    ]


def _binomial_tails(successes, trials, p):
    """P(X <= successes) and P(X >= successes) for X ~ Bin(trials, p)."""
    pmf = [
        math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
        for k in range(trials + 1)
    ]
    return sum(pmf[: successes + 1]), sum(pmf[successes:])


def _z(estimate, value):
    """Distance of ``value`` from a mean, in the estimate's own SEs.

    A sample with no spread (its ``count`` runs all ended alike) has no
    standard error.  It can still miss outcomes rarer than about
    ``3/count`` (the rule of three), so it stands for a band of that
    share of its value, read as ``MAX_Z`` standard errors.
    """
    se = (estimate.high - estimate.low) / 2.0 / _z_value(0.95)
    if se == 0.0:
        se = 3.0 / estimate.count * abs(estimate.value) / MAX_Z
    return (value - estimate.value) / se


def test_covers_every_static_cell(wall):
    assert len(wall) == 104


def test_timely_counts_inside_exact_binomial_interval(wall):
    worst = None
    for label, sampled, analytic, _job in wall:
        successes = round(sampled.p * sampled.reps)
        lower, upper = _binomial_tails(successes, sampled.reps, analytic.p)
        tail = min(lower, upper)
        if worst is None or tail < worst[0]:
            worst = (tail, label, successes, analytic.p)
    tail, label, successes, p = worst
    assert tail >= ALPHA / 2, (
        f"{label}: {successes}/{REPS} timely has tail probability {tail:.2e} "
        f"under the analytic P = {p:.6f}"
    )


@pytest.mark.parametrize("field", ["energy_all", "energy_timely"])
def test_energies_within_standard_errors(wall, field):
    worst = (0.0, None)
    for label, sampled, analytic, _job in wall:
        sample = getattr(sampled, field)
        if field == "energy_timely" and sample.count < 30:
            continue
        z = _z(sample, getattr(analytic, field).value)
        if abs(z) > abs(worst[0]):
            worst = (z, label)
    z, label = worst
    assert abs(z) <= MAX_Z, f"{label}: {field} is {z:+.2f} standard errors off"


def test_fast_mode_static_cells_are_exact_mode_bit_for_bit(wall):
    # The fast kernel runs only adaptive cells: static ones take the
    # exact path block by block, so nothing about them may move.
    fast_jobs = [
        dataclasses.replace(plan.job, kernel="fast")
        for _, plan in _static_cells(fast_static=False)
    ]
    assert len(fast_jobs) == 104
    fast = BatchRunner().run_cells(fast_jobs)
    for (label, exact, _analytic, _job), ours in zip(wall, fast):
        assert ours.same_values(exact), label


def test_static_schemes_meet_the_worst_case_under_k_faults():
    feasible = 0
    for label, plan in _static_cells(fast_static=True):
        job = plan.job
        schedule = job.schedule()
        first = schedule.interval_lengths[0]
        retry = first + schedule.checkpoint_cost + schedule.rollback_cost
        k = job.task.fault_budget
        faults = ScriptedFaults(j * retry + first - 1e-6 for j in range(k))
        result = simulate_run(job.task, job.policy_factory(), faults)
        worst = (
            k * retry
            + schedule.work
            + schedule.n_intervals * schedule.checkpoint_cost
        )
        if worst <= job.task.deadline:
            feasible += 1
            assert result.timely, label
            assert result.finish_time == pytest.approx(worst, rel=0, abs=1e-9), (
                label
            )
            assert result.detected_faults == result.rollbacks == k, label
            assert result.checkpoints == schedule.n_intervals + k, label
        else:
            assert not result.timely, label
    # Both branches hold cells (60 meet the deadline, 44 do not).
    assert 0 < feasible < 104


def test_each_fast_static_cell_is_the_analytic_outcome(wall):
    for label, _exact, analytic, job in wall:
        outcome = static_outcome(job.schedule(), job.task.deadline)
        assert analytic.reps == REPS, label
        assert analytic.p == outcome.p_timely, label
        assert analytic.p_timely.low == analytic.p_timely.high == analytic.p
        assert analytic.p_timely.trials == REPS
        assert analytic.mean_detected_faults == outcome.detected_faults, label
        assert analytic.mean_checkpoints == outcome.checkpoints, label
        assert analytic.mean_sub_checkpoints == 0.0
        assert analytic.energy_all.count == REPS
        if outcome.p_timely == 0.0:
            assert math.isnan(analytic.e) and analytic.energy_timely.count == 0
        else:
            assert analytic.mean_finish_time_timely == outcome.finish_timely
            assert analytic.energy_timely.count == REPS


def test_nonbinding_deadline_gives_the_expected_time(wall):
    # With a deadline no run can miss, E[finish | timely] is the plain
    # renewal expectation of the layout.
    for label, _exact, _analytic, job in wall[:8]:
        schedule = job.schedule()
        deadline = 4.0 * static_expected_time(schedule)
        outcome = static_outcome(schedule, deadline)
        assert outcome.p_timely == pytest.approx(1.0, abs=1e-12), label
        assert outcome.finish_timely == pytest.approx(
            static_expected_time(schedule), rel=1e-9
        ), label
        assert outcome.end_time == pytest.approx(outcome.finish_timely, rel=1e-9)


def test_band_has_teeth():
    # The band has teeth: 12/256 timely at P = 0.15 is 4.5 SEs low.
    lower, upper = _binomial_tails(12, 256, 0.15)
    assert min(lower, upper) < ALPHA / 2 < min(
        *_binomial_tails(2, 256, 0.0008)
    )
