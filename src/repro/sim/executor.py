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
checks, event by event, the loop that computes every table.
Concretely:

* fault arrivals come from the *batched* :class:`~repro.sim.faults.
  FaultStream` (``drain_until`` resolves a whole segment's faults in
  one bisection);
* per-segment energy is ``coef · cycles`` with ``coef = (n·V(f))·V(f)``
  cached per frequency — the exact operation order of
  :meth:`~repro.sim.energy.EnergyModel.segment_energy`, minus the
  per-segment lambda call and dict updates;
* :func:`execute_once` skips the ``cycles_by_frequency`` map and the
  :class:`RunResult` for callers that only fold counters — the slab
  path of :func:`repro.sim.montecarlo.accumulate_range`.

``benchmarks/bench_executor.py`` tracks the resulting reps/s and CI
fails the perf-smoke job on a >2× regression.

This module is the **exact** kernel: bit-identical run to run, across
every backend and worker count, pinned by the golden-trace replay
suite.  Its vectorised peer is :mod:`repro.sim.kernel` (the opt-in
``kernel="fast"`` mode) — statistically equivalent and roughly an
order of magnitude faster, but block- rather than rep-deterministic;
scenarios it cannot vectorise fall back to this engine per block.
"""

from __future__ import annotations

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

__all__ = ["RunResult", "RunOutcome", "SimulationLimits", "simulate_run",
           "execute_once", "default_energy_model"]

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
) -> RunOutcome:
    """One run, returning only what the accumulators fold.

    The slab-path twin of :func:`simulate_run`: the same loop on the
    same stream, but unobserved — no ``cycles_by_frequency`` dict is
    maintained and no :class:`RunResult`/failure taxonomy is built,
    which is measurable at 10,000-rep cell scale.
    """
    if energy_model is None:
        energy_model = default_energy_model()
    if rng is None:
        rng = np.random.default_rng()
    state, energy, _failure = _interval_loop(
        task,
        policy,
        faults.stream(rng),
        energy_model,
        faults_during_overhead,
        limits,
        NULL_RECORDER,
        None,
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


def _interval_loop(
    task: TaskSpec,
    policy: "CheckpointPolicy",
    stream: FaultStream,
    energy_model: EnergyModel,
    overhead_corrupting: bool,
    limits: SimulationLimits,
    recorder: TraceRecorder,
    cycles_map: Optional[Dict[float, float]],
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
            m_full = _effective_subdivisions(plan_m, interval_full)
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
        else:
            interval_cycles = interval_full
            m = m_full
            sub_cycles = sub_full

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
                end = clock + sub_cycles / frequency
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
                energy += coef * sub_cycles
            if checkpoint_cycles != 0.0:
                end = clock + checkpoint_cycles / frequency
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
                energy += coef * checkpoint_cycles
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
                    end = clock + sub_cycles / frequency
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
                    energy += coef * sub_cycles
                if index < m:
                    # -- interior sub-checkpoint: an SCP stores, a CCP
                    # compares, an interior CSCP does both
                    subs += 1
                    if sub_cost != 0.0:
                        end = clock + sub_cost / frequency
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
                        energy += coef * sub_cost
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
                    end = clock + checkpoint_cycles / frequency
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
                    energy += coef * checkpoint_cycles
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
            end = clock + rollback_cycles / frequency
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
            energy += coef * rollback_cycles
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
