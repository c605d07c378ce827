"""The five checkpointing schemes evaluated by the paper.

===========================  ====================================================
Scheme (paper name)          Class
===========================  ====================================================
``Poisson``                  :class:`PoissonArrivalPolicy` — static interval
                             ``I1 = sqrt(2C/λ)`` at a fixed speed.
``k-f-t``                    :class:`KFaultTolerantPolicy` — static interval
                             ``I2 = sqrt(N·C/k)`` at a fixed speed.
``A_D`` (ADT_DVS, DATE'03)   :class:`AdaptiveDVSPolicy` — CSCPs only, interval
                             from ``interval()``, two-speed DVS via ``t_est``.
``A_D_S`` (paper fig. 6)     :class:`AdaptiveSCPPolicy` — ``A_D`` plus ``m − 1``
                             store-checkpoints per interval via ``num_SCP``.
``A_D_C`` (paper fig. 7)     :class:`AdaptiveCCPPolicy` — ``A_D`` plus ``m − 1``
                             compare-checkpoints per interval via ``num_CCP``.
===========================  ====================================================

A policy owns no simulation state; it reads the executor's
:class:`~repro.sim.state.ExecutionState` and answers "what is the next
CSCP interval, how is it subdivided, and at what speed?".  Adaptive
policies replan at task start and after every detected fault — exactly
the recompute points of the paper's pseudocode (figs. 6/7 lines 2-4 and
14-17) — never in between.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core import optimizer
from repro.core.checkpoints import CheckpointKind
from repro.core.dvs import SpeedLadder
from repro.core.intervals import (
    checkpoint_interval,
    k_fault_interval,
    poisson_interval,
)
from repro.errors import ParameterError
from repro.sim.state import ExecutionState

__all__ = [
    "Plan",
    "CheckpointPolicy",
    "PoissonArrivalPolicy",
    "KFaultTolerantPolicy",
    "AdaptiveDVSPolicy",
    "AdaptiveSCPPolicy",
    "AdaptiveCCPPolicy",
    "AdaptiveConfig",
    "ReplanTable",
    "replan_table_for",
]

#: Deadline floor used when replanning a run that has already overshot
#: its deadline (the executor will terminate it at the next boundary).
_EPS_DEADLINE = 1e-9


@dataclass(frozen=True)
class Plan:
    """One CSCP interval: length (time units at current speed), its
    subdivision count and the kind of the interior sub-checkpoints."""

    interval_time: float
    m: int
    sub_kind: CheckpointKind

    def __post_init__(self) -> None:
        if self.interval_time <= 0:
            raise ParameterError(
                f"interval_time must be > 0, got {self.interval_time}"
            )
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")


class CheckpointPolicy(abc.ABC):
    """Strategy interface consumed by :func:`repro.sim.executor.simulate_run`."""

    #: Human-readable identifier used in reports.
    name: str = "policy"

    #: Declares that :meth:`plan` only changes in :meth:`start` /
    #: :meth:`on_fault` (true for every in-repo scheme: plans are
    #: cached between replans).  The executor hot loop then asks for
    #: the plan once per replan boundary instead of once per interval —
    #: identical execution, fewer calls.  Policies whose plan depends
    #: on mid-run state must leave this ``False``.
    plan_stable: bool = False

    @abc.abstractmethod
    def start(self, state: ExecutionState) -> None:
        """Initialise speed and plan at task start."""

    @abc.abstractmethod
    def plan(self, state: ExecutionState) -> Plan:
        """Current CSCP interval plan (cached between replans)."""

    @abc.abstractmethod
    def on_fault(self, state: ExecutionState) -> None:
        """React to a detected fault (``Rf`` already decremented)."""


class _StaticPolicy(CheckpointPolicy):
    """Shared behaviour of the two non-adaptive baselines."""

    plan_stable = True  # the plan is fixed at start and never changes

    def __init__(self, frequency: float = 1.0) -> None:
        if frequency <= 0:
            raise ParameterError(f"frequency must be > 0, got {frequency}")
        self.frequency = frequency
        self._plan: Plan | None = None

    def start(self, state: ExecutionState) -> None:
        state.frequency = self.frequency
        self._plan = Plan(
            interval_time=self._interval(state),
            m=1,
            sub_kind=CheckpointKind.CSCP,
        )

    def plan(self, state: ExecutionState) -> Plan:
        assert self._plan is not None, "start() must run before plan()"
        return self._plan

    def on_fault(self, state: ExecutionState) -> None:
        """Static schemes never replan."""

    @abc.abstractmethod
    def _interval(self, state: ExecutionState) -> float:
        """Constant checkpoint interval in time units at ``frequency``."""


class PoissonArrivalPolicy(_StaticPolicy):
    """Constant interval ``I1(C, λ) = sqrt(2C/λ)`` (Duda [8]).

    Minimises the *average* execution time under Poisson faults; ignores
    the deadline entirely, which is exactly why the paper shows it
    failing at high utilisation.
    """

    name = "Poisson"

    def _interval(self, state: ExecutionState) -> float:
        task = state.task
        cost = task.costs.checkpoint_cycles / self.frequency
        if task.fault_rate <= 0:
            return task.cycles / self.frequency
        return min(
            poisson_interval(cost, task.fault_rate),
            task.cycles / self.frequency,
        )


class KFaultTolerantPolicy(_StaticPolicy):
    """Constant interval ``I2(N, k, C) = sqrt(N·C/k)`` (Lee et al. [9]).

    Minimises the *worst-case* execution time under at most ``k``
    faults.
    """

    name = "k-f-t"

    def _interval(self, state: ExecutionState) -> float:
        task = state.task
        work = task.cycles / self.frequency
        cost = task.costs.checkpoint_cycles / self.frequency
        if task.fault_budget <= 0:
            return work
        return min(k_fault_interval(work, task.fault_budget, cost), work)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Shared knobs of the adaptive schemes.

    Parameters
    ----------
    ladder:
        Available processor speeds (paper: ``f1 = 1``, ``f2 = 2``).
    analysis_rate_factor:
        Multiplier applied to the task fault rate inside the *renewal
        models* that choose ``m``.  The paper's equations carry the DMR
        pair-divergence factor 2 while its simulation injects a single
        stream at ``λ``; the default 1.0 keeps model and simulator
        consistent (see DESIGN.md §5), 2.0 reproduces the printed
        equations verbatim.  :func:`~repro.experiments.sweeps.
        rate_factor_study` quantifies the gap.
    max_m:
        Safety clamp on the subdivision count.
    """

    ladder: SpeedLadder = field(default_factory=SpeedLadder.paper_two_level)
    analysis_rate_factor: float = 1.0
    max_m: int = optimizer.DEFAULT_MAX_SUBDIVISIONS

    def __post_init__(self) -> None:
        if self.analysis_rate_factor <= 0:
            raise ParameterError(
                f"analysis_rate_factor must be > 0, got {self.analysis_rate_factor}"
            )
        if self.max_m < 1:
            raise ParameterError(f"max_m must be >= 1, got {self.max_m}")


#: Memo of the adaptive schemes' initial (frequency, Plan) keyed by
#: (task, config, scheme class); bounded by periodic clearing.
_START_MEMO: dict = {}


class _AdaptiveBase(CheckpointPolicy):
    """Common machinery of ``A_D``, ``A_D_S`` and ``A_D_C``.

    Implements paper figs. 6/7: speed selection by ``t_est`` at start
    and after every fault; CSCP interval from the DATE'03 ``interval()``
    procedure; subdivision delegated to the concrete subclass.
    """

    plan_stable = True  # replans happen only in start()/on_fault()

    def __init__(self, config: AdaptiveConfig | None = None) -> None:
        self.config = config or AdaptiveConfig()
        self._plan: Plan | None = None
        # Per-fault replan caches: the ladder and sub-checkpoint kind
        # are fixed per policy, the checkpoint cost and renewal-model
        # arguments per (task, frequency) — and a policy instance sees
        # exactly one task (fresh policy per run).
        self._ladder = self.config.ladder
        self._kind = self._sub_kind()
        self._checkpoint_cycles: float | None = None
        self._analysis_by_frequency: dict = {}

    def start(self, state: ExecutionState) -> None:
        # Every rep of a Monte-Carlo cell starts from the same fresh
        # state, so the initial (speed, plan) is a pure function of
        # (task, config, scheme) — memoised across policy instances.
        # `Plan` is frozen, so sharing one instance is safe.  Two
        # guards keep the memo sound: only classes whose constructor is
        # exactly _AdaptiveBase's may use it (a subclass with extra
        # constructor state, e.g. the fixed-m ablation policy, is not a
        # pure function of the key), and the state must actually *be*
        # fresh — start() is public API and may legally be handed a
        # tampered state, which must bypass the cache in both
        # directions.
        task = state.task
        fresh = (
            state.clock == 0.0
            and state.remaining_cycles == task.cycles
            and state.faults_left == float(task.fault_budget)
            and state.frequency == 1.0
        )
        if not fresh or type(self).__init__ is not _AdaptiveBase.__init__:
            key = None
            memo = None
        else:
            try:
                key = (task, self.config, type(self))
                memo = _START_MEMO.get(key)
            except TypeError:  # unhashable custom config: just compute
                key = None
                memo = None
        if memo is not None:
            state.frequency, self._plan = memo
            return
        self._select_speed(state)
        self._replan(state)
        if key is not None:
            if len(_START_MEMO) > 1024:
                _START_MEMO.clear()
            _START_MEMO[key] = (state.frequency, self._plan)

    def plan(self, state: ExecutionState) -> Plan:
        assert self._plan is not None, "start() must run before plan()"
        return self._plan

    def on_fault(self, state: ExecutionState) -> None:
        self._select_speed(state)
        self._replan(state)

    def _select_speed(self, state: ExecutionState) -> None:
        task = state.task
        checkpoint_cycles = self._checkpoint_cycles
        if checkpoint_cycles is None:
            checkpoint_cycles = self._checkpoint_cycles = (
                task.costs.checkpoint_cycles
            )
        state.frequency = self._ladder.select_speed(
            state.remaining_cycles,
            state.deadline_left,
            rate=task.fault_rate,
            checkpoint_cycles=checkpoint_cycles,
        )

    def _replan(self, state: ExecutionState) -> None:
        task = state.task
        frequency = state.frequency
        checkpoint_cycles = self._checkpoint_cycles
        if checkpoint_cycles is None:
            checkpoint_cycles = self._checkpoint_cycles = (
                task.costs.checkpoint_cycles
            )
        cost = checkpoint_cycles / frequency
        work = state.remaining_cycles / frequency
        deadline_left = max(state.deadline_left, _EPS_DEADLINE)
        interval = checkpoint_interval(
            deadline_left, work, cost, state.faults_left, task.fault_rate
        )
        m = self._subdivide(state, interval)
        # checkpoint_interval clamps into (0, work] and _subdivide
        # returns m >= 1, so Plan's validation is skipped (this runs
        # once per detected fault in every adaptive Monte-Carlo rep).
        plan = Plan.__new__(Plan)
        object.__setattr__(plan, "interval_time", interval)
        object.__setattr__(plan, "m", m)
        object.__setattr__(plan, "sub_kind", self._kind)
        self._plan = plan

    @abc.abstractmethod
    def _subdivide(self, state: ExecutionState, interval: float) -> int:
        """Number of sub-intervals for a CSCP interval of this length."""

    @abc.abstractmethod
    def _sub_kind(self) -> CheckpointKind:
        """Kind of the interior sub-checkpoints."""

    def _analysis_args(self, state: ExecutionState) -> dict:
        """Renewal-model arguments in time units at the current speed.

        Cached per frequency: a policy instance serves one run of one
        task, so everything here is constant per speed level.
        """
        frequency = state.frequency
        args = self._analysis_by_frequency.get(frequency)
        if args is None:
            task = state.task
            costs = task.costs
            args = {
                "rate": task.fault_rate * self.config.analysis_rate_factor,
                "store": costs.store_cycles / frequency,
                "compare": costs.compare_cycles / frequency,
                "rollback": costs.rollback_cycles / frequency,
                "max_m": self.config.max_m,
            }
            self._analysis_by_frequency[frequency] = args
        return args


class ReplanTable:
    """Quantised memo of an adaptive policy's per-fault replan decision.

    The fast kernel's rung 2 (:mod:`repro.sim.kernel`): instead of
    re-running ``_select_speed`` + ``_replan`` (``checkpoint_interval``
    plus the ``num_SCP``/``num_CCP`` renewal-model optimisation —
    ~20 µs per ``num_CCP`` Brent search at table 3/4 parameters on a
    2-vCPU Intel Xeon) at every detected fault, the
    (remaining_cycles, deadline_left, faults_left) query is quantised
    onto a ``resolution × resolution`` grid and the decision is
    evaluated **at the bucket centre**, lazily, once per bucket.

    Two properties make the memo safe to share:

    * values are a pure function of the bucket, never of the query that
      first filled it — so the fill *order* cannot change results, and
      a table shared across blocks/workers stays deterministic;
    * queries outside the grid (overshot deadline, out-of-range work)
      bypass the memo and evaluate the policy at the exact query point
      — the exactness fallback the design calls for.

    Thread-safe: a process-shared table (see :func:`replan_table_for`)
    can be hit from concurrent scheduler/service threads, and
    :meth:`_eval` works by mutating one reusable
    :class:`ExecutionState` (and the wrapped policy's own caches) — so
    evaluations are serialised under a per-table lock.  Memo reads stay
    lock-free: a racing double-fill computes the same pure-function row
    twice, which is wasted work, never a wrong answer.

    ``resolution=0`` disables quantisation entirely: every lookup is an
    exact evaluation (the conformance-test mode — the kernel then
    replans with arithmetic identical to the exact executor's).

    This is a **fast-mode** component: the quantised decision is
    statistically equivalent, not bit-identical, to the exact replan.
    The exact executor never touches it.
    """

    __slots__ = (
        "_policy",
        "_task",
        "_resolution",
        "_state",
        "_rc_step",
        "_dl_step",
        "_deadline",
        "_cycles",
        "_memo",
        "_eval_lock",
        "__weakref__",
    )

    #: Default grid resolution per axis (empirically: fine enough that
    #: the statistical-equivalence suite holds with wide margin, coarse
    #: enough that a cell's working set is a few thousand buckets).
    DEFAULT_RESOLUTION = 512

    def __init__(
        self,
        policy: CheckpointPolicy,
        task,
        *,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        if resolution < 0:
            raise ParameterError(
                f"resolution must be >= 0, got {resolution}"
            )
        self._policy = policy
        self._task = task
        self._resolution = resolution
        self._state = ExecutionState.fresh(task)
        self._deadline = task.deadline
        self._cycles = task.cycles
        if resolution:
            self._rc_step = task.cycles / resolution
            self._dl_step = task.deadline / resolution
        else:
            self._rc_step = 0.0
            self._dl_step = 0.0
        self._memo: dict = {}
        self._eval_lock = threading.Lock()

    @property
    def resolution(self) -> int:
        return self._resolution

    @property
    def entries(self) -> int:
        """Memoised buckets so far (diagnostics)."""
        return len(self._memo)

    @property
    def rc_step(self) -> float:
        """Remaining-cycles bucket width (0.0 when resolution is 0)."""
        return self._rc_step

    @property
    def dl_step(self) -> float:
        """Deadline-left bucket width (0.0 when resolution is 0)."""
        return self._dl_step

    def lookup(
        self, remaining_cycles: float, deadline_left: float, faults_left: float
    ):
        """``(frequency, interval_time, m)`` after a fault at this state."""
        if (
            self._resolution
            and 0.0 < deadline_left <= self._deadline
            and 0.0 < remaining_cycles <= self._cycles
        ):
            i = int(remaining_cycles / self._rc_step)
            j = int(deadline_left / self._dl_step)
            key = (i, j, faults_left)
            row = self._memo.get(key)
            if row is None:
                row = self._eval(
                    (i + 0.5) * self._rc_step,
                    (j + 0.5) * self._dl_step,
                    faults_left,
                )
                self._memo[key] = row
            return row
        # Off-table: evaluate at the exact query point.
        return self._eval(remaining_cycles, deadline_left, faults_left)

    def lookup_many(self, remaining_cycles, deadline_left, faults_left):
        """Vectorised :meth:`lookup` over equal-length arrays.

        Returns a list of ``(frequency, interval_time, m)`` rows, one
        per query — identical to calling :meth:`lookup` elementwise,
        but with the bucketing done in NumPy and only cache misses
        paying for a policy evaluation.  The fast kernel's per-fault
        replan path.
        """
        rc = np.asarray(remaining_cycles, dtype=np.float64)
        dl = np.asarray(deadline_left, dtype=np.float64)
        n = rc.shape[0]
        out = [None] * n
        if self._resolution:
            on = (
                (dl > 0.0)
                & (dl <= self._deadline)
                & (rc > 0.0)
                & (rc <= self._cycles)
            )
            i_all = (np.where(on, rc, 0.0) / self._rc_step).astype(np.int64)
            j_all = (np.where(on, dl, 0.0) / self._dl_step).astype(np.int64)
            on_l = on.tolist()
            i_l = i_all.tolist()
            j_l = j_all.tolist()
        else:
            on_l = [False] * n
            i_l = j_l = None
        rc_l = rc.tolist()
        dl_l = dl.tolist()
        fl_l = np.asarray(faults_left, dtype=np.float64).tolist()
        memo = self._memo
        get = memo.get
        eval_ = self._eval
        rc_step = self._rc_step
        dl_step = self._dl_step
        for p in range(n):
            if on_l[p]:
                key = (i_l[p], j_l[p], fl_l[p])
                row = get(key)
                if row is None:
                    row = eval_(
                        (i_l[p] + 0.5) * rc_step,
                        (j_l[p] + 0.5) * dl_step,
                        fl_l[p],
                    )
                    memo[key] = row
            else:
                row = eval_(rc_l[p], dl_l[p], fl_l[p])
            out[p] = row
        return out

    def _eval(self, remaining_cycles: float, deadline_left: float,
              faults_left: float):
        with self._eval_lock:
            state = self._state
            state.remaining_cycles = remaining_cycles
            state.clock = self._deadline - deadline_left
            state.faults_left = faults_left
            state.frequency = 1.0  # overwritten by _select_speed
            policy = self._policy
            policy.on_fault(state)
            plan = policy.plan(state)
            return (state.frequency, plan.interval_time, plan.m)


#: Process-level shared replan tables, keyed by
#: (scheme class, config, task, resolution); bounded by clearing.
#: Shared only for classes whose constructor is exactly
#: ``_AdaptiveBase.__init__`` (same soundness guard as _START_MEMO):
#: a subclass with extra constructor state is not a pure function of
#: the key.
_REPLAN_TABLES: dict = {}

#: Guards the registry's get/clear/insert sequence — concurrent
#: scheduler threads must converge on ONE table per key, or the
#: cross-block sharing the registry exists for silently degrades.
_REPLAN_TABLES_LOCK = threading.Lock()


def replan_table_for(
    policy: CheckpointPolicy, task, *, resolution: int = ReplanTable.DEFAULT_RESOLUTION
) -> Optional[ReplanTable]:
    """A :class:`ReplanTable` for ``policy``, shared when that is sound.

    Returns ``None`` for policies that never replan mid-run (the static
    baselines — their plan is fixed at start) and for policy types the
    table cannot model (anything that is not an :class:`_AdaptiveBase`).
    Sharable adaptive policies (constructor is exactly the base's) get
    the process-level memo — amortising bucket evaluations across every
    block of every cell with the same (scheme, config, task); others
    get a private table wrapped around the given instance.
    """
    if isinstance(policy, _StaticPolicy):
        return None
    if not isinstance(policy, _AdaptiveBase):
        return None
    if type(policy).__init__ is _AdaptiveBase.__init__:
        key = (type(policy), policy.config, task, resolution)
        try:
            hash(key)
        except TypeError:  # unhashable custom config
            key = None
        if key is not None:
            with _REPLAN_TABLES_LOCK:
                table = _REPLAN_TABLES.get(key)
                if table is not None:
                    return table
                table = ReplanTable(
                    type(policy)(policy.config), task, resolution=resolution
                )
                if len(_REPLAN_TABLES) > 64:
                    _REPLAN_TABLES.clear()
                _REPLAN_TABLES[key] = table
                return table
        return ReplanTable(
            type(policy)(policy.config), task, resolution=resolution
        )
    return ReplanTable(policy, task, resolution=resolution)


class AdaptiveDVSPolicy(_AdaptiveBase):
    """``A_D`` — the ADT_DVS baseline of Zhang & Chakrabarty (DATE'03).

    Plain CSCPs (no subdivision): faults are detected at the closing
    comparison and roll back a whole interval.
    """

    name = "A_D"

    def _subdivide(self, state: ExecutionState, interval: float) -> int:
        return 1

    def _sub_kind(self) -> CheckpointKind:
        return CheckpointKind.CSCP


class AdaptiveSCPPolicy(_AdaptiveBase):
    """``A_D_S`` — adaptive checkpointing with additional SCPs (fig. 6).

    Each CSCP interval is split into ``m`` parts by store-checkpoints;
    ``m`` minimises the renewal model ``R1`` (procedure ``num_SCP``).
    On a fault the pair rolls back only to the last clean store.
    """

    name = "A_D_S"

    def _subdivide(self, state: ExecutionState, interval: float) -> int:
        return optimizer.num_scp(interval, **self._analysis_args(state)).m

    def _sub_kind(self) -> CheckpointKind:
        return CheckpointKind.SCP


class AdaptiveCCPPolicy(_AdaptiveBase):
    """``A_D_C`` — adaptive checkpointing with additional CCPs (fig. 7).

    Each CSCP interval is split into ``m`` parts by compare-checkpoints;
    ``m`` minimises the renewal model ``R2`` (procedure ``num_CCP``).
    Faults are detected at the next comparison (early) but rollback goes
    to the interval's opening CSCP.
    """

    name = "A_D_C"

    def _subdivide(self, state: ExecutionState, interval: float) -> int:
        return optimizer.num_ccp(interval, **self._analysis_args(state)).m

    def _sub_kind(self) -> CheckpointKind:
        return CheckpointKind.CCP
