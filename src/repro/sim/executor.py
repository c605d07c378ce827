"""Event-driven execution of one checkpointed DMR task run.

:func:`simulate_run` drives a :class:`~repro.core.schemes.CheckpointPolicy`
over one realisation of a fault process and produces a
:class:`RunResult`.  The loop structure mirrors the paper's pseudocode
(figs. 3, 6, 7):

1. abort with *task failure* when the remaining fault-free execution
   time exceeds the remaining deadline (``Rt > Rd`` — line 5/6);
2. execute one CSCP interval, subdivided per the policy's plan:

   * **SCP subdivision** — state is stored at every sub-boundary;
     divergence is detected at the closing CSCP comparison and the pair
     rolls back to the last store preceding the first fault;
   * **CCP subdivision** — states are compared at every sub-boundary;
     divergence is detected at the first comparison after the fault and
     the pair rolls back to the interval's opening CSCP;
   * **CSCP subdivision** — states are compared and stored at every
     sub-boundary; divergence is detected at the first comparison after
     the fault and the pair rolls back to the last clean boundary;
   * **plain CSCP** (``m = 1``) — detect at the end, roll back the whole
     interval;

3. on a detected fault: decrement ``Rf``, charge the rollback cost and
   let the policy replan (speed + interval).

Timing and energy: an operation of ``x`` cycles at frequency ``f`` takes
``x/f`` time units and charges the energy model with ``x`` cycles at
``f``.  Fault arrivals live in wall-clock time.  By default faults
landing inside checkpoint overhead windows are ignored — the convention
of the paper's analysis; set ``faults_during_overhead=True`` to have
them corrupt state too (a fault inside a rollback window then corrupts
the restored state and is detected by the next attempt).

One loop
--------
:func:`simulate_run` and :func:`execute_once` run the same interval
loop.  It is the per-rep cost of every Monte-Carlo cell, so it keeps
everything in local variables and pays for observation only when
asked: a trace recorder and the ``cycles_by_frequency`` map are fed
inside one ``if observed:`` branch per segment, which never touches
the arithmetic.  So a recorded run, an unrecorded run and
:func:`execute_once` give the same bits, and the golden-trace replay
checks, event by event, the loop that computes every table; it then
runs each executor golden unrecorded, plainly and through its cell's
:class:`Trajectory`, against the golden's result record.
Concretely:

* fault arrivals come from the *batched* :class:`~repro.sim.faults.
  FaultStream` (``drain_until`` resolves a whole segment's faults in
  one bisection);
* per-segment energy is ``coef · cycles`` with ``coef = (n·V(f))·V(f)``
  cached per frequency — the exact operation order of
  :meth:`~repro.sim.energy.EnergyModel.segment_energy`, minus the
  per-segment lambda call and dict updates — and each segment's
  duration and energy are computed once per replan;
* :func:`execute_once` skips the ``cycles_by_frequency`` map and the
  :class:`RunResult` for callers that only fold counters — the slab
  path of :func:`repro.sim.montecarlo.accumulate_range`;
* a Monte-Carlo block runs its cell's fault-free run once
  (:func:`fault_free_trajectory`), and each rep starts from where its
  first corrupting arrival leaves it (:class:`Trajectory`); static
  cells walk their shared attempt sequence (:class:`_StaticWalk`).
  ``tests/test_trajectory_wall.py`` holds every outcome field to the
  plain loop's, bit for bit.

``benchmarks/bench_executor.py`` tracks the resulting reps/s and CI
fails the perf-smoke job on a >2× regression.

This module is the **exact** kernel: bit-identical run to run, across
every backend and worker count, pinned by the golden-trace replay
suite.  Its vectorised peer is :mod:`repro.sim.kernel` (the opt-in
``kernel="fast"`` mode) runs the adaptive schemes: statistically
equivalent and 1.4–3.1× faster at the default 256-rep block, but
block- rather than rep-deterministic.  Static cells, and scenarios it
cannot vectorise, take this engine per block in fast mode too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.checkpoints import CheckpointKind
from repro.errors import ParameterError, SimulationError
from repro.sim.energy import EnergyModel
from repro.sim.faults import FaultProcess, FaultStream
from repro.sim.state import ExecutionState
from repro.sim.task import TaskSpec
from repro.sim.trace import NULL_RECORDER, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.schemes import CheckpointPolicy

__all__ = ["RunResult", "RunOutcome", "SimulationLimits", "Trajectory",
           "simulate_run", "execute_once", "fault_free_trajectory",
           "default_energy_model"]

#: Work below this many cycles counts as "finished" (guards float drift).
_CYCLE_EPS = 1e-9

#: Minimum meaningful sub-interval span in cycles: ``m`` is clamped so
#: no sub-interval falls below it.  Shared by _effective_subdivisions
#: and the interval loop's inline tail clamp, which must stay
#: operation-identical to it (the fast kernel calls the function).
_MIN_SUB_CYCLES = 1e-6

#: Cached default model — building ``EnergyModel.paper_dmr()`` per run
#: is measurable at Monte-Carlo scale and the instance is immutable.
_DEFAULT_MODEL: Optional[EnergyModel] = None


def default_energy_model() -> EnergyModel:
    """The shared calibrated paper model (one instance per process)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = EnergyModel.paper_dmr()
    return _DEFAULT_MODEL


@dataclass(frozen=True)
class SimulationLimits:
    """Safety bounds for one run.

    ``max_intervals`` bounds the number of CSCP intervals (a run that
    exceeds it raises :class:`SimulationError` — it indicates a bug, not
    a slow task, because the deadline check terminates doomed runs).
    ``horizon_factor`` caps the wall-clock at ``factor × deadline``.
    """

    max_intervals: int = 2_000_000
    horizon_factor: float = 64.0

    def horizon(self, task: TaskSpec) -> float:
        return self.horizon_factor * task.deadline


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated task execution."""

    completed: bool
    timely: bool
    finish_time: float
    energy: float
    cycles_executed: float
    cycles_by_frequency: Dict[float, float]
    detected_faults: int
    injected_faults: int
    checkpoints: int
    sub_checkpoints: int
    rollbacks: int
    failure_reason: Optional[str] = None

    @property
    def deadline_met(self) -> bool:
        """Alias for :attr:`timely` (paper's "timely completion")."""
        return self.timely


@dataclass(slots=True)
class RunOutcome:
    """The accumulator-facing subset of a run's outcome.

    What :func:`execute_once` returns: everything a
    :class:`~repro.sim.montecarlo.CellAccumulator` folds, nothing it
    does not (no per-frequency cycle map, no failure taxonomy) — the
    payload the slab path writes straight into NumPy scratch arrays.
    (A slotted, non-frozen dataclass: it is created once per rep.)
    """

    completed: bool
    timely: bool
    finish_time: float
    energy: float
    detected_faults: int
    injected_faults: int
    checkpoints: int
    sub_checkpoints: int
    rollbacks: int


def simulate_run(
    task: TaskSpec,
    policy: "CheckpointPolicy",
    faults: FaultProcess,
    energy_model: Optional[EnergyModel] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    faults_during_overhead: bool = False,
    limits: SimulationLimits = SimulationLimits(),
    recorder: TraceRecorder = NULL_RECORDER,
) -> RunResult:
    """Simulate one execution of ``task`` under ``policy``.

    Parameters
    ----------
    task:
        The task to execute.
    policy:
        Checkpointing scheme; a *fresh* policy instance should be used
        per run (policies cache their plan).
    faults:
        Fault-arrival process; one realisation is drawn via ``rng``.
    energy_model:
        Defaults to the calibrated paper model
        (:meth:`EnergyModel.paper_dmr`).
    rng:
        NumPy generator for the fault stream (unused by
        :class:`~repro.sim.faults.ScriptedFaults`).
    faults_during_overhead:
        Whether faults arriving during checkpoint/rollback overhead
        corrupt state (default ``False``; see module docstring).
    limits:
        Safety bounds.
    recorder:
        Optional :class:`~repro.sim.trace.TraceRecorder`.  It observes
        the same loop :func:`execute_once` runs and changes no result
        bit.
    """
    if energy_model is None:
        energy_model = default_energy_model()
    if rng is None:
        rng = np.random.default_rng()

    cycles_map: Dict[float, float] = {}
    state, energy, failure = _interval_loop(
        task,
        policy,
        faults.stream(rng),
        energy_model,
        faults_during_overhead,
        limits,
        recorder,
        cycles_map,
    )
    completed = state.remaining_cycles <= _CYCLE_EPS
    timely = completed and state.clock <= task.deadline + _CYCLE_EPS
    return RunResult(
        completed=completed,
        timely=timely,
        finish_time=state.clock,
        energy=energy,
        cycles_executed=sum(cycles_map.values()),
        cycles_by_frequency=cycles_map,
        detected_faults=state.detected_faults,
        injected_faults=state.injected_faults,
        checkpoints=state.checkpoints,
        sub_checkpoints=state.sub_checkpoints,
        rollbacks=state.rollbacks,
        failure_reason=None if completed else failure,
    )


def execute_once(
    task: TaskSpec,
    policy: "CheckpointPolicy",
    faults: FaultProcess,
    energy_model: Optional[EnergyModel] = None,
    rng: Optional[np.random.Generator] = None,
    *,
    faults_during_overhead: bool = False,
    limits: SimulationLimits = SimulationLimits(),
    trajectory: Optional["Trajectory"] = None,
) -> RunOutcome:
    """One run, returning only what the accumulators fold.

    The slab-path twin of :func:`simulate_run`: the same loop on the
    same stream, but unobserved — no ``cycles_by_frequency`` dict is
    maintained and no :class:`RunResult`/failure taxonomy is built,
    which is measurable at 10,000-rep cell scale.

    ``trajectory`` is the cell's shared fault-free run
    (:func:`fault_free_trajectory`, built for the same task, policy,
    energy model, overhead setting and limits).  The run then skips
    what it shares with that run and gives the same outcome, bit for
    bit.
    """
    if energy_model is None:
        energy_model = default_energy_model()
    if rng is None:
        rng = np.random.default_rng()
    stream = faults.stream(rng)
    resume = None
    if trajectory is not None:
        resume = trajectory.start(task, policy, stream)
        if resume.__class__ is RunOutcome:
            return resume
    state, energy, _failure = _interval_loop(
        task,
        policy,
        stream,
        energy_model,
        faults_during_overhead,
        limits,
        NULL_RECORDER,
        None,
        None,
        resume,
    )
    completed = state.remaining_cycles <= _CYCLE_EPS
    timely = completed and state.clock <= task.deadline + _CYCLE_EPS
    return RunOutcome(
        completed=completed,
        timely=timely,
        finish_time=state.clock,
        energy=energy,
        detected_faults=state.detected_faults,
        injected_faults=state.injected_faults,
        checkpoints=state.checkpoints,
        sub_checkpoints=state.sub_checkpoints,
        rollbacks=state.rollbacks,
    )


def fault_free_trajectory(
    task: TaskSpec,
    policy: "CheckpointPolicy",
    energy_model: Optional[EnergyModel] = None,
    *,
    faults_during_overhead: bool = False,
    limits: SimulationLimits = SimulationLimits(),
) -> Optional["Trajectory"]:
    """The cell's fault-free run, for :func:`execute_once`'s ``trajectory``.

    Runs the interval loop once with no fault and keeps what every rep
    of the cell shares (see :class:`Trajectory`).  ``policy`` is one
    fresh instance of the cell's policy; it is started and then spent.
    Returns ``None`` where the trajectory would not be sound or would
    not pay: policies outside the in-repo static and adaptive schemes
    (or not ``plan_stable``), fault-free runs longer than
    :data:`_TRAJECTORY_CAP` segments, and runs the loop rejects (a
    negative cost, ``max_intervals``).  Reps then run the plain loop,
    which raises what it raises.
    """
    from repro.core.schemes import _AdaptiveBase, _StaticPolicy

    if not isinstance(policy, (_StaticPolicy, _AdaptiveBase)):
        return None
    if not policy.plan_stable:
        return None
    if energy_model is None:
        energy_model = default_energy_model()
    log = _PassLog()
    try:
        state, energy, _failure = _interval_loop(
            task,
            policy,
            FaultStream(_no_fault),
            energy_model,
            faults_during_overhead,
            limits,
            log,
            None,
            log,
        )
    except (ParameterError, SimulationError, _TooLong):
        return None
    completed = state.remaining_cycles <= _CYCLE_EPS
    outcome = RunOutcome(
        completed=completed,
        timely=completed and state.clock <= task.deadline + _CYCLE_EPS,
        finish_time=state.clock,
        energy=energy,
        detected_faults=0,
        injected_faults=0,
        checkpoints=state.checkpoints,
        sub_checkpoints=state.sub_checkpoints,
        rollbacks=0,
    )
    walk = None
    if isinstance(policy, _StaticPolicy) and task.costs.rollback_cycles == 0.0:
        walk = _StaticWalk.build(
            log.openings, outcome, state.remaining_cycles, task, limits,
            faults_during_overhead,
        )
    return Trajectory(task, type(policy), log, outcome, walk,
                      faults_during_overhead)


#: Most segments (or static attempts) a :class:`Trajectory` keeps; a
#: paper cell's fault-free run has 15–600.
_TRAJECTORY_CAP = 1 << 16


class _TooLong(Exception):
    """The fault-free run outgrew :data:`_TRAJECTORY_CAP`."""


def _no_fault() -> None:
    """A fault process that never fires (the trajectory's pass)."""
    return None


def _ignore(*_args, **_kwargs) -> None:
    return None


class _PassLog(TraceRecorder):
    """What the fault-free pass leaves: segment ends, interval openings.

    The loop feeds it as a recorder (``segment``) and as ``capture``
    (``append``); every other callback is dropped.
    """

    def __init__(self) -> None:
        self.ends: list = []
        self.labels: list = []
        self.openings: list = []
        #: Index into ``ends`` of each interval's first segment.
        self.firsts: list = []

    def append(self, opening: tuple) -> None:
        self.openings.append(opening)
        self.firsts.append(len(self.ends))

    def segment(self, label, frequency, start, end, cycles) -> None:
        if len(self.ends) >= _TRAJECTORY_CAP:
            raise _TooLong
        self.ends.append(end)
        self.labels.append(label)

    checkpoint = fault = rollback = speed = finish = _ignore


class Trajectory:
    """A cell's fault-free run, shared by the reps of one block.

    Every rep of a cell starts from the same fresh state under the same
    plan, so until its first *corrupting* fault arrival each rep runs
    the same fault-free trajectory.  :func:`fault_free_trajectory` runs
    it once through the interval loop and keeps each non-empty
    segment's end (the bound the loop drains arrivals up to), whether
    an arrival in it corrupts state (execution always, overhead only
    with ``faults_during_overhead``), and each interval's opening
    clock, remaining work, energy and counters.

    :meth:`start` bisects one rep's arrivals into the segment ends.
    Arrivals in non-corrupting overhead segments only count as
    injected, so they are consumed and counted; the rep then resumes
    the loop at the opening of the interval holding its first
    corrupting arrival, or, with none before the trajectory ends,
    returns the fault-free outcome.  Static cells with no rollback cost
    and one execution segment per interval go further
    (:class:`_StaticWalk`).
    """

    __slots__ = ("_task", "_policy_type", "_ends", "_corrupting",
                 "_interval_of", "_openings", "_outcome", "_walk")

    def __init__(self, task, policy_type, log: _PassLog, outcome,
                 walk, overhead_corrupting: bool) -> None:
        self._task = task
        self._policy_type = policy_type
        self._ends = log.ends
        # None when every segment corrupts: the first arrival decides.
        corrupting = None
        if not overhead_corrupting and any(
            label != "exec" for label in log.labels
        ):
            corrupting = [label == "exec" for label in log.labels]
        self._corrupting = corrupting
        interval_of: list = []
        bounds = log.firsts + [len(log.ends)]
        for index in range(len(log.firsts)):
            interval_of.extend([index] * (bounds[index + 1] - bounds[index]))
        self._interval_of = interval_of
        self._openings = [opening[:5] for opening in log.openings]
        self._outcome = outcome
        self._walk = walk

    @property
    def walks(self) -> bool:
        """Whether reps take the static attempt walk (:class:`_StaticWalk`)."""
        return self._walk is not None

    def start(self, task, policy, stream: FaultStream):
        """One rep's start: a :class:`RunOutcome`, or the loop's ``resume``."""
        if type(policy) is not self._policy_type or (
            task is not self._task and task != self._task
        ):
            raise ParameterError("the trajectory was built for another cell")
        if self._walk is not None:
            return self._walk.start(stream)
        ends = self._ends
        last = len(ends)
        seg = bisect_left(ends, stream.peek())
        injected = 0
        corrupting = self._corrupting
        if corrupting is not None:
            while seg < last and not corrupting[seg]:
                stream.pop()
                injected += 1
                seg = bisect_left(ends, stream.peek(), seg)
        if seg >= last:
            outcome = self._outcome
            return RunOutcome(
                outcome.completed, outcome.timely, outcome.finish_time,
                outcome.energy, 0, injected, outcome.checkpoints,
                outcome.sub_checkpoints, 0,
            )
        index = self._interval_of[seg]
        return (index, *self._openings[index], injected, 0)


class _StaticWalk:
    """The attempt sequence every rep of a static cell shares.

    With a fixed plan of one execution segment per interval and no
    rollback cost, a detected fault costs exactly one attempt: the
    closing CSCP detects it, nothing is committed, the policy keeps its
    plan and speed, and the same interval is retried from the next
    clock.  So attempt ``j`` of every rep spans the same clock window
    and charges the same energy whether it succeeds or not; reps differ
    only in how many attempts succeeded, and only success moves the
    remaining work.  The walk lays out the attempts once, until one
    opens past the deadline, with the loop's own segment arithmetic
    (``clock + dt``, ``energy + de``, per-replan constants from the
    fault-free pass).  A rep then jumps from arrival to arrival: the
    attempts in between succeed, the one an arrival corrupts fails.

    The loop's checks at an attempt's opening are evaluated on the same
    floats it compares.  ``Rt > Rd`` at attempt ``j`` after ``s``
    successes is ``r_s / f > D − C_j``; the deadline side only falls
    with ``j``, so the first failing attempt ``J(s)`` is a bisection, as
    is the horizon's.  A rep with ``d`` failures stops at the first
    success count ``s`` with ``J(s) − s ≤ d``; the walk is kept only
    when ``J(s) − s`` never rises with ``s`` (it falls by the checkpoint
    share of an attempt per success in exact arithmetic), which makes
    that search one lookup per failure count.  The tail interval runs
    in the loop.
    """

    __slots__ = ("_ends", "_per", "_corrupt_all", "_clocks", "_energies",
                 "_tail", "_tail_remaining", "_first_stop", "_deadline")

    @classmethod
    def build(cls, openings, outcome, final_remaining, task, limits,
              overhead_corrupting: bool) -> Optional["_StaticWalk"]:
        if not openings:
            return None
        (clock, _remaining, energy, _checkpoints, _subs, frequency,
         interval_full, m_full, full_dt, full_de, cscp_dt, cscp_de) = openings[0]
        deadline = task.deadline
        horizon = limits.horizon(task)
        if (
            m_full != 1
            or not interval_full > 0.0
            or not math.isfinite(deadline)
            or math.isnan(horizon)
        ):
            return None
        # r_s, the remaining work after s successes, until the tail.
        remainings = [
            opening[1] for opening in openings
            if opening[1] >= interval_full
        ]
        tail = len(remainings)
        if tail == 0 or any(
            opening[1] >= interval_full for opening in openings[tail:]
        ):
            return None
        if tail < len(openings):
            tail_remaining = openings[tail][1]
        else:
            tail_remaining = final_remaining
            if not outcome.completed:
                # The fault-free run stopped at a check before its tail:
                # every rep stops by then too, so the tail is never met.
                remainings.append(final_remaining)
                tail += 1
        cap = min(limits.max_intervals, _TRAJECTORY_CAP)
        has_cscp = task.costs.checkpoint_cycles != 0.0
        clocks = [clock]
        energies = [energy]
        ends: list = []
        while clock <= deadline:
            if len(clocks) > cap:
                return None
            clock = clock + full_dt
            energy += full_de
            ends.append(clock)
            if has_cscp:
                clock = clock + cscp_dt
                energy += cscp_de
                ends.append(clock)
            clocks.append(clock)
            energies.append(energy)
        # Rd at each attempt's opening, negated so it ascends.
        rising = [-(deadline - opened) for opened in clocks]
        past_horizon = bisect_right(clocks, horizon)
        slack = []
        for s, remaining in enumerate(remainings):
            fails = bisect_right(rising, -(remaining / frequency))
            slack.append(min(fails, past_horizon) - s)
        if any(later > earlier for earlier, later in zip(slack, slack[1:])):
            return None
        # first_stop[d]: the first s with slack ≤ d (d ≥ slack[0] → 0).
        rising_slack = [-value for value in slack]
        first_stop = [
            bisect_left(rising_slack, -failures)
            for failures in range(slack[0] + 1)
        ]
        walk = cls.__new__(cls)
        walk._ends = ends
        walk._per = 2 if has_cscp else 1
        walk._corrupt_all = overhead_corrupting
        walk._clocks = clocks
        walk._energies = energies
        walk._tail = tail
        walk._tail_remaining = tail_remaining
        walk._first_stop = first_stop
        walk._deadline = deadline
        return walk

    def start(self, stream: FaultStream):
        """One rep: a :class:`RunOutcome`, or the tail's ``resume``."""
        ends = self._ends
        per = self._per
        clocks = self._clocks
        first_stop = self._first_stop
        known = len(first_stop)
        tail = self._tail
        corrupt_all = self._corrupt_all
        attempt = successes = injected = 0
        arrival = stream.peek()
        while True:
            seg = bisect_left(ends, arrival, attempt * per)
            hit = seg // per  # the attempt the arrival lands in
            failures = attempt - successes
            stop = first_stop[failures] if failures < known else 0
            if stop < successes:
                stop = successes
            tail_at = attempt + tail - successes
            if hit >= tail_at:
                if stop < tail:
                    return self._stopped(
                        attempt + stop - successes, failures, injected
                    )
                return self._tail_start(tail_at, failures, injected)
            if stop <= successes + hit - attempt:
                return self._stopped(
                    attempt + stop - successes, failures, injected
                )
            successes += hit - attempt
            if corrupt_all or seg % per == 0:
                # Detected at the closing CSCP: the attempt is spent.
                attempt = hit + 1
                injected += len(stream.take_until(clocks[attempt]))
            else:
                # Inside a CSCP the arrival corrupts nothing.
                attempt = hit
                stream.pop()
                injected += 1
            arrival = stream.peek()

    def _stopped(self, attempt: int, failures: int, injected: int) -> RunOutcome:
        """Stopped at an attempt's opening by ``Rt > Rd`` or the horizon."""
        return RunOutcome(
            False, False, self._clocks[attempt], self._energies[attempt],
            failures, injected, attempt, 0, failures,
        )

    def _tail_start(self, attempt: int, failures: int, injected: int):
        clock = self._clocks[attempt]
        remaining = self._tail_remaining
        if remaining <= _CYCLE_EPS:
            return RunOutcome(
                True, clock <= self._deadline + _CYCLE_EPS, clock,
                self._energies[attempt], failures, injected, attempt, 0,
                failures,
            )
        return (attempt, clock, remaining, self._energies[attempt], attempt,
                0, injected, failures)


def _interval_loop(
    task: TaskSpec,
    policy: "CheckpointPolicy",
    stream: FaultStream,
    energy_model: EnergyModel,
    overhead_corrupting: bool,
    limits: SimulationLimits,
    recorder: TraceRecorder,
    cycles_map: Optional[Dict[float, float]],
    capture: Optional["_PassLog"] = None,
    resume: Optional[tuple] = None,
) -> Tuple[ExecutionState, float, Optional[str]]:
    """The interval loop; returns ``(state, energy, failure)``.

    Everything lives in local variables, with no per-segment or
    per-interval function calls.  The :class:`ExecutionState` is
    synchronised before every policy callback (``plan``; ``on_fault``
    on detection) and on exit, so policies always observe the current
    run state.  Policies declaring ``plan_stable`` (every in-repo
    scheme) are asked for their plan only at start and after each
    fault; the plan-derived per-interval constants are cached in
    between.

    The run is *observed* when a recorder is attached or a cycle map
    is wanted.  Each segment then updates ``cycles_map`` and calls the
    recorder inside one ``if observed:`` branch, so an unobserved run
    tests one flag per segment; observation never writes the clock,
    the energy, the remaining work, the counters or the corruption
    state.  Recorder events: ``speed`` at start and after an
    ``on_fault`` that changes speed (never after ``plan``), each
    ``fault`` with its corrupting flag, each non-empty ``segment``,
    each ``checkpoint`` and ``rollback`` (also at zero cost), and the
    ``finish``.

    Each segment's duration ``cycles / f`` and energy ``coef · cycles``
    are computed once per replan (the tail interval's execution
    segments once per tail), from the same operands with the same IEEE
    operations as per segment.

    ``capture`` (the fault-free pass of a :class:`Trajectory`) gets one
    ``append`` per interval, after the plan is known, of the interval's
    opening state and plan constants.  ``resume`` starts the loop at
    the top of a later interval instead of at the start:
    ``(intervals, clock, remaining, energy, checkpoints,
    sub_checkpoints, injected, detected)``, with the policy started on
    the fresh state and no detection having replanned since.
    """
    state = ExecutionState.fresh(task)
    policy.start(state)
    tracing = recorder is not NULL_RECORDER
    if tracing and cycles_map is None:
        cycles_map = {}
    observed = cycles_map is not None

    costs = task.costs
    store_cycles = costs.store_cycles
    compare_cycles = costs.compare_cycles
    checkpoint_cycles = costs.checkpoint_cycles
    rollback_cycles = costs.rollback_cycles
    if (
        store_cycles < 0
        or compare_cycles < 0
        or checkpoint_cycles < 0
        or rollback_cycles < 0
    ):
        raise ParameterError("cannot advance by negative cycles")
    voltage_of = energy_model.voltage_of
    n_processors = energy_model.n_processors
    deadline = task.deadline
    horizon = limits.horizon(task)
    max_intervals = limits.max_intervals
    drain_until = stream.drain_until
    plan_of = policy.plan
    plan_stable = getattr(policy, "plan_stable", False)
    kind_scp = CheckpointKind.SCP
    kind_ccp = CheckpointKind.CCP
    kind_cscp = CheckpointKind.CSCP

    # Hoisted mutable run state (synced to ``state`` at policy
    # boundaries and on exit).
    clock = state.clock
    remaining = state.remaining_cycles
    faults_left = state.faults_left
    injected = 0
    detected = 0
    checkpoints = 0
    subs = 0
    rollbacks = 0
    energy = 0.0
    next_fault = stream.peek()
    frequency = state.frequency
    voltage = voltage_of(frequency)
    coef = n_processors * voltage * voltage  # segment_energy's op order
    coefs: Dict[float, float] = {frequency: coef}
    #: Fault time carried out of a corrupting rollback window (only
    #: with ``faults_during_overhead``); poisons the next interval.
    carried_fault: Optional[float] = None
    failure: Optional[str] = None
    intervals = 0
    if resume is not None:
        (intervals, clock, remaining, energy, checkpoints, subs, injected,
         detected) = resume
        rollbacks = detected
        faults_left -= detected
    # Plan-derived constants, recomputed whenever the plan may have
    # changed (every interval unless the policy declares plan_stable).
    need_plan = True
    interval_full = 0.0
    m_full = 1
    sub_full = 0.0
    plan_m = 1
    sub_cost = 0.0
    is_scp = False
    is_ccp = False
    # Per-replan segment constants: duration (dt) and energy (de) of a
    # full interval's execution segment, a sub-checkpoint, the closing
    # CSCP and a rollback.
    full_dt = full_de = sub_dt = sub_de = 0.0
    cscp_dt = cscp_de = rollback_dt = rollback_de = 0.0
    if tracing:
        recorder.speed(clock, frequency)

    while remaining > _CYCLE_EPS:
        intervals += 1
        if intervals > max_intervals:
            raise SimulationError(
                f"run exceeded {max_intervals} CSCP intervals; "
                "policy/executor inconsistency"
            )
        if remaining / frequency > deadline - clock:
            failure = "deadline_infeasible"
            break
        if clock > horizon:
            failure = "horizon"
            break

        if need_plan:
            need_plan = not plan_stable
            state.clock = clock
            state.remaining_cycles = remaining
            state.injected_faults = injected
            state.checkpoints = checkpoints
            state.sub_checkpoints = subs
            plan = plan_of(state)
            if state.frequency != frequency:
                frequency = state.frequency
                coef = coefs.get(frequency)
                if coef is None:
                    voltage = voltage_of(frequency)
                    coef = n_processors * voltage * voltage
                    coefs[frequency] = coef
            interval_full = plan.interval_time * frequency
            if interval_full < 0:
                raise ParameterError(
                    f"cannot advance by negative cycles: {interval_full}"
                )
            plan_m = plan.m
            # _effective_subdivisions leaves m = 1 as it is.
            m_full = (
                1 if plan_m == 1
                else _effective_subdivisions(plan_m, interval_full)
            )
            sub_full = interval_full / m_full
            sub_kind = plan.sub_kind
            is_scp = sub_kind is kind_scp
            is_ccp = sub_kind is kind_ccp
            # CostModel.cycles_of, without a call per replan.
            sub_cost = (
                store_cycles if is_scp
                else compare_cycles if is_ccp
                else checkpoint_cycles
            )
            full_dt = sub_full / frequency
            full_de = coef * sub_full
            sub_dt = sub_cost / frequency
            sub_de = coef * sub_cost
            cscp_dt = checkpoint_cycles / frequency
            cscp_de = coef * checkpoint_cycles
            rollback_dt = rollback_cycles / frequency
            rollback_de = coef * rollback_cycles
        if capture is not None:
            capture.append((
                clock, remaining, energy, checkpoints, subs, frequency,
                interval_full, m_full, full_dt, full_de, cscp_dt, cscp_de,
            ))

        if remaining < interval_full:
            # The tail interval: clamp to the remaining work
            # (_effective_subdivisions, inline).
            interval_cycles = remaining
            m = plan_m
            if interval_cycles <= 0:
                m = 1
            else:
                largest = int(interval_cycles / _MIN_SUB_CYCLES)
                if largest < 1:
                    largest = 1
                if m > largest:
                    m = largest
                if m < 1:
                    m = 1
            sub_cycles = interval_cycles / m
            exec_dt = sub_cycles / frequency
            exec_de = coef * sub_cycles
        else:
            interval_cycles = interval_full
            m = m_full
            sub_cycles = sub_full
            exec_dt = full_dt
            exec_de = full_de

        first_fault = carried_fault
        carried_fault = None
        committed = -1.0  # sentinel: no detection
        clean_boundary = 0  # last sub-boundary with consistent stored state

        # Every segment below has the same shape: skip it at zero
        # cycles, drain the faults up to its end (execution always
        # corrupts; overhead only with faults_during_overhead), observe
        # it, then advance the clock and charge coef·cycles.
        if m == 1:
            # Plain-CSCP interval (the A_D and static schemes, and any
            # unsubdivided adaptive interval): one execution segment
            # and the closing CSCP, no sub-boundary machinery.
            if sub_cycles != 0.0:
                end = clock + exec_dt
                if next_fault <= end:
                    times, next_fault = drain_until(end)
                    injected += len(times)
                    if tracing:
                        _record_faults(recorder, times, True)
                    if first_fault is None:
                        first_fault = times[0]
                if observed:
                    cycles_map[frequency] = (
                        cycles_map.get(frequency, 0.0) + sub_cycles
                    )
                    if tracing:
                        recorder.segment("exec", frequency, clock, end, sub_cycles)
                clock = end
                energy += exec_de
            if checkpoint_cycles != 0.0:
                end = clock + cscp_dt
                if next_fault <= end:
                    times, next_fault = drain_until(end)
                    injected += len(times)
                    if tracing:
                        _record_faults(recorder, times, overhead_corrupting)
                    if overhead_corrupting and first_fault is None:
                        first_fault = times[0]
                if observed:
                    cycles_map[frequency] = (
                        cycles_map.get(frequency, 0.0) + checkpoint_cycles
                    )
                    if tracing:
                        recorder.segment(
                            "cscp", frequency, clock, end, checkpoint_cycles
                        )
                        recorder.checkpoint(end, kind_cscp)
                clock = end
                energy += cscp_de
            elif tracing:
                recorder.checkpoint(clock, kind_cscp)
            checkpoints += 1
            if first_fault is None:
                remaining -= interval_cycles
                continue
            # clean_boundary is 0: nothing was committed.
            committed = 0.0
        else:
            for index in range(1, m + 1):
                # -- execute one sub-interval (always corrupting) -----
                if sub_cycles != 0.0:
                    end = clock + exec_dt
                    if next_fault <= end:
                        times, next_fault = drain_until(end)
                        injected += len(times)
                        if tracing:
                            _record_faults(recorder, times, True)
                        if first_fault is None:
                            first_fault = times[0]
                    if observed:
                        cycles_map[frequency] = (
                            cycles_map.get(frequency, 0.0) + sub_cycles
                        )
                        if tracing:
                            recorder.segment(
                                "exec", frequency, clock, end, sub_cycles
                            )
                    clock = end
                    energy += exec_de
                if index < m:
                    # -- interior sub-checkpoint: an SCP stores, a CCP
                    # compares, an interior CSCP does both
                    subs += 1
                    if sub_cost != 0.0:
                        end = clock + sub_dt
                        if next_fault <= end:
                            times, next_fault = drain_until(end)
                            injected += len(times)
                            if tracing:
                                _record_faults(recorder, times, overhead_corrupting)
                            if overhead_corrupting and first_fault is None:
                                first_fault = times[0]
                        if observed:
                            cycles_map[frequency] = (
                                cycles_map.get(frequency, 0.0) + sub_cost
                            )
                            if tracing:
                                recorder.segment(
                                    sub_kind.value, frequency, clock, end, sub_cost
                                )
                                recorder.checkpoint(end, sub_kind)
                        clock = end
                        energy += sub_de
                    elif tracing:
                        recorder.checkpoint(clock, sub_kind)
                    if first_fault is None:
                        # A clean boundary: the newest consistent state.
                        clean_boundary = index
                    elif not is_scp:
                        # A comparison detects early (an SCP only
                        # stores: detection waits for the closing CSCP).
                        committed = 0.0 if is_ccp else clean_boundary * sub_cycles
                        break
            else:
                # -- closing CSCP: compare (detects divergence), store
                if checkpoint_cycles != 0.0:
                    end = clock + cscp_dt
                    if next_fault <= end:
                        times, next_fault = drain_until(end)
                        injected += len(times)
                        if tracing:
                            _record_faults(recorder, times, overhead_corrupting)
                        if overhead_corrupting and first_fault is None:
                            first_fault = times[0]
                    if observed:
                        cycles_map[frequency] = (
                            cycles_map.get(frequency, 0.0) + checkpoint_cycles
                        )
                        if tracing:
                            recorder.segment(
                                "cscp", frequency, clock, end, checkpoint_cycles
                            )
                            recorder.checkpoint(end, kind_cscp)
                    clock = end
                    energy += cscp_de
                elif tracing:
                    recorder.checkpoint(clock, kind_cscp)
                checkpoints += 1
                if first_fault is not None:
                    committed = 0.0 if is_ccp else clean_boundary * sub_cycles

            if committed < 0.0:
                remaining -= interval_cycles
                continue

        # -- detection: charge the rollback, let the policy react -----
        remaining -= committed
        if rollback_cycles != 0.0:
            end = clock + rollback_dt
            if next_fault <= end:
                times, next_fault = drain_until(end)
                injected += len(times)
                if tracing:
                    _record_faults(recorder, times, overhead_corrupting)
                if overhead_corrupting:
                    # Corrupts the freshly restored state: carried into
                    # the next attempt, whose comparison detects it.
                    carried_fault = times[0]
            if observed:
                cycles_map[frequency] = (
                    cycles_map.get(frequency, 0.0) + rollback_cycles
                )
                if tracing:
                    recorder.segment(
                        "rollback", frequency, clock, end, rollback_cycles
                    )
                    recorder.rollback(end, committed)
            clock = end
            energy += rollback_de
        elif tracing:
            recorder.rollback(clock, committed)
        detected += 1
        rollbacks += 1
        faults_left -= 1
        state.clock = clock
        state.remaining_cycles = remaining
        state.faults_left = faults_left
        state.detected_faults = detected
        state.rollbacks = rollbacks
        state.injected_faults = injected
        state.checkpoints = checkpoints
        state.sub_checkpoints = subs
        policy.on_fault(state)
        need_plan = True
        if state.frequency != frequency:
            frequency = state.frequency
            coef = coefs.get(frequency)
            if coef is None:
                voltage = voltage_of(frequency)
                coef = n_processors * voltage * voltage
                coefs[frequency] = coef
            if tracing:
                recorder.speed(clock, frequency)

    state.clock = clock
    state.remaining_cycles = remaining
    state.faults_left = faults_left
    state.detected_faults = detected
    state.rollbacks = rollbacks
    state.injected_faults = injected
    state.checkpoints = checkpoints
    state.sub_checkpoints = subs
    completed = remaining <= _CYCLE_EPS
    if completed:
        failure = None
    elif failure is None:
        failure = "deadline_infeasible"
    if tracing:
        recorder.finish(
            clock,
            completed=completed,
            timely=completed and clock <= deadline + _CYCLE_EPS,
        )
    return state, energy, failure


def _record_faults(recorder: TraceRecorder, times, corrupting: bool) -> None:
    """Report a segment's fault arrivals, in order."""
    for time in times:
        recorder.fault(float(time), corrupting=corrupting)


def _effective_subdivisions(m: int, interval_cycles: float) -> int:
    """Clamp ``m`` so every sub-interval spans a meaningful cycle count."""
    if interval_cycles <= 0:
        return 1
    largest = max(1, int(interval_cycles / _MIN_SUB_CYCLES))
    return max(1, min(m, largest))
