"""The shared fault-free trajectory against the plain interval loop.

:func:`~repro.sim.montecarlo.accumulate_range` builds one
:class:`~repro.sim.executor.Trajectory` per block and hands it to every
rep's :func:`~repro.sim.executor.execute_once`: a rep then skips the
fault-free prefix it shares with the cell, and a static cell with no
rollback cost walks its shared attempt sequence.  Neither may move a
bit.  This wall runs the same reps both ways, with and without the
trajectory, and compares every :class:`~repro.sim.executor.RunOutcome`
field bit for bit (``-0.0`` is not ``0.0``):

* every column of all eight paper tables, at both
  ``faults_during_overhead`` settings;
* Hypothesis-drawn cells: work and deadline (fault-free-infeasible
  deadlines included), store, compare and rollback costs (zero and
  not), λ, static schemes at either speed and adaptive ones on a
  2–5-level ladder over ``[1, 2]``, under Poisson, dual-Poisson,
  Weibull, bursty and scripted faults, with scripted arrivals at
  ``0.0`` and exactly on segment ends;
* a static policy whose plan subdivides (``m > 1``), which must not
  take the static walk.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.plans import table_cells
from repro.core.checkpoints import CheckpointKind, CostModel
from repro.core.dvs import SpeedLadder
from repro.core.schemes import (
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
    KFaultTolerantPolicy,
    Plan,
    PoissonArrivalPolicy,
    _StaticPolicy,
)
from repro.errors import ParameterError, SimulationError
from repro.experiments.config import table_spec
from repro.experiments.paper_data import TABLE_IDS
from repro.sim.executor import (
    RunOutcome,
    SimulationLimits,
    default_energy_model,
    execute_once,
    fault_free_trajectory,
    simulate_run,
)
from repro.sim.faults import (
    BurstyFaults,
    DualPoissonFaults,
    PoissonFaults,
    ScriptedFaults,
    WeibullFaults,
)
from repro.sim.montecarlo import accumulate_range
from repro.sim.rng import RandomSource
from repro.sim.task import TaskSpec
from repro.sim.trace import TraceRecorder, same_scalar

STATIC = {"Poisson", "k-f-t"}


def _differences(plain: RunOutcome, walked: RunOutcome):
    return [
        (name, getattr(plain, name), getattr(walked, name))
        for name in RunOutcome.__slots__
        if not same_scalar(getattr(plain, name), getattr(walked, name))
    ]


def _compare(task, factory, faults, reps, *, overhead=False, seed=3,
             limits=SimulationLimits(), model=None):
    """Run ``reps`` reps plain and through the trajectory; return the
    trajectory and every (rep, field, plain, trajectory) difference."""
    model = model or default_energy_model()
    trajectory = fault_free_trajectory(
        task, factory(), model, faults_during_overhead=overhead, limits=limits
    )
    source = RandomSource(seed)
    differences = []
    for rep in range(reps):
        plain = execute_once(
            task, factory(), faults, model, source.substream(rep),
            faults_during_overhead=overhead, limits=limits,
        )
        walked = execute_once(
            task, factory(), faults, model, source.substream(rep),
            faults_during_overhead=overhead, limits=limits,
            trajectory=trajectory,
        )
        differences.extend(
            (rep, *diff) for diff in _differences(plain, walked)
        )
    return trajectory, differences


@pytest.mark.parametrize("overhead", [False, True], ids=["ignored", "corrupting"])
@pytest.mark.parametrize("table", TABLE_IDS)
def test_every_paper_column_matches_the_plain_loop(table, overhead):
    checked = 0
    for plan in table_cells(table_spec(table), reps=1, seed=1):
        job = plan.job
        scheme = dict(plan.axes)["scheme"]
        faults = job.faults or PoissonFaults(job.task.fault_rate)
        trajectory, differences = _compare(
            job.task, job.policy_factory, faults, 12 if overhead else 24,
            overhead=overhead, limits=job.limits,
        )
        assert trajectory is not None, plan.key
        # Every paper static column has t_r = 0 and one segment per
        # interval, so every one of them takes the walk.
        assert trajectory.walks == (scheme in STATIC), plan.key
        assert differences == [], (plan.key, differences[:3])
        checked += 1
    assert checked


class _SubdividedStatic(_StaticPolicy):
    """A static plan with ``m`` sub-intervals of ``kind`` (no in-repo
    static scheme subdivides)."""

    name = "static-subdivided"

    def __init__(self, frequency=1.0, m=4, kind=CheckpointKind.CSCP):
        super().__init__(frequency)
        self._m = m
        self._kind = kind

    def start(self, state):
        super().start(state)
        self._plan = Plan(
            interval_time=self._interval(state), m=self._m, sub_kind=self._kind
        )

    def _interval(self, state):
        return 400.0 / self.frequency


@pytest.mark.parametrize("kind", list(CheckpointKind))
@pytest.mark.parametrize("overhead", [False, True])
def test_subdivided_static_plan_takes_the_prefix_not_the_walk(kind, overhead):
    task = TaskSpec(
        cycles=6000.0, deadline=9000.0, fault_budget=5, fault_rate=1e-3,
        costs=CostModel.scp_favourable(),
    )
    factory = partial(_SubdividedStatic, 1.0, 4, kind)
    trajectory, differences = _compare(
        task, factory, PoissonFaults(task.fault_rate), 40, overhead=overhead
    )
    assert trajectory is not None and not trajectory.walks
    assert differences == []


class _SegmentEnds(TraceRecorder):
    """Keeps the end of every segment a run reports."""

    def __init__(self):
        self.ends = []

    def segment(self, label, frequency, start, end, cycles):
        self.ends.append(end)


def _segment_ends(task, factory, faults, overhead, seed):
    """Segment ends of one recorded run (the loop's own clock values)."""
    recorder = _SegmentEnds()
    simulate_run(
        task, factory(), faults, rng=RandomSource(seed).substream(0),
        faults_during_overhead=overhead, recorder=recorder,
    )
    return recorder.ends


SCHEMES = {
    "Poisson": PoissonArrivalPolicy,
    "k-f-t": KFaultTolerantPolicy,
    "A_D": AdaptiveDVSPolicy,
    "A_D_S": AdaptiveSCPPolicy,
    "A_D_C": AdaptiveCCPPolicy,
}


def _adaptive_config(draw):
    """A ladder of 2–5 levels over [1, 2] (the inner ones drawn), so
    replans also run the per-level constants of ladders longer than the
    paper's.  A free store or compare lets num_SCP/num_CCP pick the
    largest m, so ``max_m`` is capped to keep each example fast."""
    inner = draw(st.lists(
        st.floats(min_value=1.0, max_value=2.0, exclude_min=True,
                  exclude_max=True),
        max_size=3, unique=True,
    ))
    ladder = SpeedLadder.from_frequencies((1.0, *sorted(inner), 2.0))
    return AdaptiveConfig(ladder=ladder, max_m=32)

PROCESSES = ["poisson", "dual", "weibull", "bursty", "scripted"]


def _process(name, rate, draw):
    if name == "poisson":
        return PoissonFaults(rate)
    if name == "dual":
        return DualPoissonFaults(rate / 2.0)
    if name == "weibull":
        return WeibullFaults(
            draw(st.floats(min_value=0.5, max_value=2.0)), 1.0 / rate
        )
    return BurstyFaults(
        quiet_rate=rate / 4.0, burst_rate=rate * 8.0,
        quiet_dwell=2000.0, burst_dwell=300.0,
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_drawn_cells_match_the_plain_loop(data):
    draw = data.draw
    cycles = draw(st.floats(min_value=200.0, max_value=9000.0))
    # Utilisation up to 1.3 at f1: some deadlines are infeasible even
    # fault-free, at one speed or both.
    utilisation = draw(st.floats(min_value=0.3, max_value=1.3))
    rollback = draw(st.sampled_from([0.0, 0.0, 7.0, 40.0]))
    # A zero store or compare cost makes empty segments the loop skips.
    store, compare = draw(st.sampled_from(
        [(2.0, 20.0), (0.0, 3.0), (2.0, 0.0), (15.0, 3.0)]
    ))
    costs = CostModel(
        store_cycles=store, compare_cycles=compare, rollback_cycles=rollback
    )
    rate = draw(st.floats(min_value=1e-5, max_value=4e-3))
    task = TaskSpec(
        cycles=cycles,
        deadline=cycles / utilisation,
        fault_budget=draw(st.integers(min_value=0, max_value=12)),
        fault_rate=rate,
        costs=costs,
    )
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    if scheme in STATIC:
        setting = draw(st.sampled_from([1.0, 2.0]))
    else:
        setting = _adaptive_config(draw)
    factory = partial(SCHEMES[scheme], setting)
    overhead = draw(st.booleans())
    process = draw(st.sampled_from(PROCESSES))
    if process == "scripted":
        ends = _segment_ends(
            task, factory, PoissonFaults(rate), overhead, draw(st.integers(0, 99))
        )
        chosen = sorted(set(draw(
            st.lists(st.sampled_from(ends), max_size=6)
        ))) if ends else []
        faults = ScriptedFaults(([0.0] if draw(st.booleans()) else []) + [
            t for t in chosen if t > 0.0
        ])
    else:
        faults = _process(process, rate, draw)
    trajectory, differences = _compare(
        task, factory, faults, 6, overhead=overhead,
        seed=draw(st.integers(min_value=0, max_value=2**20)),
    )
    assert trajectory is not None
    assert differences == []


def test_static_walk_on_scripted_attempt_ends():
    """Arrivals exactly on exec and CSCP ends of later attempts, on the
    opening instant, and past the deadline."""
    task = TaskSpec(
        cycles=3000.0, deadline=4200.0, fault_budget=3, fault_rate=2e-3,
        costs=CostModel.scp_favourable(),
    )
    factory = partial(PoissonArrivalPolicy, 1.0)
    ends = _segment_ends(task, factory, PoissonFaults(5e-3), False, 4)
    for overhead in (False, True):
        for picks in (ends[:3], ends[1::3], ends[2::5], ends[-4:]):
            faults = ScriptedFaults([0.0] + picks + [ends[-1] + 5000.0])
            trajectory, differences = _compare(
                task, factory, faults, 1, overhead=overhead
            )
            assert trajectory.walks
            assert differences == []


def test_blocks_raise_what_the_loop_raises():
    task = TaskSpec(
        cycles=5000.0, deadline=8000.0, fault_budget=3, fault_rate=1e-3,
        costs=CostModel.scp_favourable(),
    )
    tight = SimulationLimits(max_intervals=3)
    for factory in (partial(PoissonArrivalPolicy, 1.0), AdaptiveSCPPolicy):
        assert fault_free_trajectory(task, factory(), limits=tight) is None
        with pytest.raises(SimulationError):
            accumulate_range(task, factory, start=0, stop=8, limits=tight)
    # A negative cost (past CostModel's own validation) is the loop's
    # to reject, in every rep.
    costs = CostModel.scp_favourable()
    object.__setattr__(costs, "rollback_cycles", -1.0)
    negative = TaskSpec(
        cycles=5000.0, deadline=8000.0, fault_budget=3, fault_rate=1e-3,
        costs=costs,
    )
    for factory in (partial(PoissonArrivalPolicy, 1.0), AdaptiveDVSPolicy):
        assert fault_free_trajectory(negative, factory()) is None
        with pytest.raises(ParameterError, match="negative cycles"):
            accumulate_range(negative, factory, start=0, stop=8)


def test_a_trajectory_serves_only_its_own_cell():
    task = TaskSpec(
        cycles=5000.0, deadline=8000.0, fault_budget=3, fault_rate=1e-3,
        costs=CostModel.scp_favourable(),
    )
    trajectory = fault_free_trajectory(task, AdaptiveDVSPolicy())
    with pytest.raises(ParameterError):
        execute_once(task, AdaptiveSCPPolicy(), PoissonFaults(1e-3),
                     rng=RandomSource(0).substream(0), trajectory=trajectory)
    other = task.with_cycles(4000.0)
    with pytest.raises(ParameterError):
        execute_once(other, AdaptiveDVSPolicy(), PoissonFaults(1e-3),
                     rng=RandomSource(0).substream(0), trajectory=trajectory)
