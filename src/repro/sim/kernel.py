"""The vectorised "fast" executor kernel for the adaptive schemes —
statistically equivalent, block-deterministic, opt-in.

:func:`accumulate_range_fast` is the fast-mode peer of
:func:`repro.sim.montecarlo.accumulate_range` (the exact, bit-identical
path).  Selected via ``ExecutionSettings(kernel="fast")`` /
``--kernel fast``, it trades the exact mode's per-rep bit-identity for
throughput on the adaptive schemes (``A_D``, ``A_D_S``, ``A_D_C``:
every :class:`~repro.core.schemes._AdaptiveBase` policy), whose
replan at every detected fault is what its lookup table speeds up.
Serial and warm on a 2-vCPU Xeon, at the default 256-rep block, it ran
A_D cells at 1.4–1.8× exact and A_D_S/A_D_C cells at 2.3–3.1×
(tables 1a, 3a and 4a, summed over each table's rows; 3.0× and 5.1× on
table 1a at 2,048-rep blocks).

Static cells (Poisson, k-f-t) fix one plan at start, and exact mode
already walks their shared attempt sequence once per block: at
256-rep blocks the kernel ran them at 0.68–0.78× exact.  So they take
the exact path per block, and their fast-mode estimates equal exact
mode's bit for bit; :class:`~repro.sim.backends.AnalyticCellJob`
(``fast_static``) computes them in closed form at any block size.

The kernel works in three rungs:

1. **Batched RNG spawn** — one counter-based Philox stream per rep
   block (:meth:`repro.sim.rng.RandomSource.fast_block_stream`) draws
   the whole block's fault realisations as a single ``(reps, K)``
   matrix (:meth:`repro.sim.faults.FaultProcess.block_gaps`), replacing
   the exact path's per-rep ``PCG64`` seeding (~28 µs a rep through
   numpy's ``SeedSequence``, ~4–6 µs through the block-seeded port in
   :mod:`repro.sim.seedseq`).
2. **Table-driven adaptive replan** — per-fault replans resolve through
   a quantised :class:`ReplanTable` (bucket-centre evaluation,
   exactness fallback off-table) instead of re-running the
   ``checkpoint_interval`` + ``num_SCP``/``num_CCP`` optimisation.
3. **Fused segment loop over the pre-drawn fault slab** — the interval
   loop runs rep-synchronously over NumPy arrays (one vectorised
   iteration advances every live rep by one CSCP interval, classifying
   each rep's first corrupting fault arithmetically instead of walking
   windows), accumulating straight into the worker's
   :class:`~repro.sim.montecarlo.RunSlab`.

Contract
--------
* **Not bit-identical to exact mode.**  Energy/clock accumulate
  per-interval instead of per-window and replans quantise, so
  estimates differ at statistical (not semantic) level — the
  statistical-equivalence suite (``tests/test_fast_kernel.py``) pins
  99 % CI overlap against exact mode for every golden scheme ×
  fault-process pair the kernel runs.
* **Block-deterministic within fast mode**: for a fixed chunk size the
  results are identical for any worker count and backend, because the
  block's draws and every replan-table value are pure functions of
  block identity (never of fill order).
* **Falls back to the exact path per block** — same estimates as exact
  mode, per-rep substreams — whenever the cell is out of scope:
  policies that are not :class:`_AdaptiveBase` subclasses (the static
  baselines included), non-vectorisable fault processes
  (:class:`~repro.sim.faults.BurstyFaults` and any process without
  :meth:`block_gaps`), or cost models with ``rollback_cycles != 0``
  (both in-repo cost models use ``t_r = 0``; the rollback-window
  corruption carry is the one piece of exact semantics this kernel
  does not vectorise).
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Tuple

import numpy as np

from repro.core.checkpoints import CheckpointKind
from repro.core.schemes import _AdaptiveBase
from repro.choices import KERNEL_NAMES
from repro.errors import ParameterError, SimulationError
from repro.sim.energy import EnergyModel
from repro.sim.executor import (
    SimulationLimits,
    _CYCLE_EPS,
    _MIN_SUB_CYCLES,
    _effective_subdivisions,
    default_energy_model,
)
from repro.sim.faults import FaultProcess, PoissonFaults, ScriptedFaults
from repro.sim.montecarlo import CellAccumulator, PolicyFactory, _worker_slab
from repro.sim.rng import RandomSource
from repro.sim.state import ExecutionState
from repro.sim.task import TaskSpec

__all__ = [
    "KERNEL_NAMES",
    "ReplanTable",
    "accumulate_range_fast",
    "kernel_supported",
    "replan_table_for",
]

#: Safety bound on fault-classification rounds within one interval
#: (each round advances at least one rep's probe cursor by one fault).
_MAX_SCAN_ROUNDS = 1_000_000

_KIND_CSCP = 0
_KIND_SCP = 1
_KIND_CCP = 2

_KIND_CODES = {
    CheckpointKind.CSCP: _KIND_CSCP,
    CheckpointKind.SCP: _KIND_SCP,
    CheckpointKind.CCP: _KIND_CCP,
}


def kernel_supported(
    task: TaskSpec, policy, faults: FaultProcess
) -> bool:
    """Whether the vectorised kernel covers this cell.

    Out-of-scope cells fall back to the exact per-rep path (same
    estimates as exact mode) — see the module docstring.
    """
    if task.costs.rollback_cycles != 0.0:
        return False
    if not isinstance(policy, _AdaptiveBase):
        return False
    if isinstance(faults, ScriptedFaults):
        return True
    return type(faults).block_gaps is not FaultProcess.block_gaps


class ReplanTable:
    """Quantised memo of an adaptive policy's per-fault replan decision.

    Rung 2 of this kernel: instead of re-running ``_replan`` (the speed
    choice, ``checkpoint_interval`` plus the ``num_SCP``/``num_CCP``
    renewal-model optimisation — ~20 µs per ``num_CCP`` Brent search at
    table 3/4 parameters on a 2-vCPU Intel Xeon) at every detected
    fault, the (remaining_cycles, deadline_left, faults_left) query is
    quantised onto a ``resolution × resolution`` grid and the decision
    is evaluated **at the bucket centre**, lazily, once per bucket.

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

    The quantised decision is statistically equivalent, not
    bit-identical, to the exact replan; the exact executor never
    touches this table.
    """

    __slots__ = (
        "_policy",
        "_resolution",
        "_state",
        "_rc_step",
        "_dl_step",
        "_deadline",
        "_cycles",
        "_memo",
        "_packed",
        "_eval_lock",
    )

    #: Default grid resolution per axis (empirically: fine enough that
    #: the statistical-equivalence suite holds with wide margin, coarse
    #: enough that a cell's working set is a few thousand buckets).
    DEFAULT_RESOLUTION = 512

    def __init__(
        self,
        policy: _AdaptiveBase,
        task: TaskSpec,
        *,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        if resolution < 0:
            raise ParameterError(
                f"resolution must be >= 0, got {resolution}"
            )
        self._policy = policy
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
        # The kernel's cross-block cache: packed bucket key ->
        # (frequency, interval·f, planned m, effective m).  Energy-model
        # independent (the coefficient layer is per block) and pure
        # bucket-centre values, so sharing it across blocks cannot
        # break block determinism.
        self._packed: dict = {}
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

    def _eval(self, remaining_cycles: float, deadline_left: float,
              faults_left: float):
        with self._eval_lock:
            state = self._state
            state.remaining_cycles = remaining_cycles
            state.clock = self._deadline - deadline_left
            state.faults_left = faults_left
            state.frequency = 1.0  # overwritten by _replan
            policy = self._policy
            policy.on_fault(state)
            plan = policy.plan(state)
            return (state.frequency, plan.interval_time, plan.m)


#: Process-level shared replan tables, keyed by
#: (scheme class, config, task, resolution); bounded by clearing.
#: Shared only for classes whose constructor is exactly
#: ``_AdaptiveBase.__init__`` (the soundness guard of the schemes'
#: start memo): a subclass with extra constructor state is not a pure
#: function of the key.
_REPLAN_TABLES: dict = {}

#: Guards the registry's get/clear/insert sequence — concurrent
#: scheduler threads must converge on ONE table per key, or the
#: cross-block sharing the registry exists for silently degrades.
_REPLAN_TABLES_LOCK = threading.Lock()


def replan_table_for(
    policy: _AdaptiveBase,
    task: TaskSpec,
    *,
    resolution: int = ReplanTable.DEFAULT_RESOLUTION,
) -> ReplanTable:
    """A :class:`ReplanTable` for the adaptive ``policy``, shared when
    that is sound.

    Sharable policies (constructor is exactly the base's) get the
    process-level memo — amortising bucket evaluations across every
    block of every cell with the same (scheme, config, task); others
    get a private table wrapped around the given instance.
    """
    if type(policy).__init__ is not _AdaptiveBase.__init__:
        return ReplanTable(policy, task, resolution=resolution)
    key = (type(policy), policy.config, task, resolution)
    try:
        hash(key)
    except TypeError:  # unhashable custom config
        return ReplanTable(
            type(policy)(policy.config), task, resolution=resolution
        )
    with _REPLAN_TABLES_LOCK:
        table = _REPLAN_TABLES.get(key)
        if table is None:
            table = ReplanTable(
                type(policy)(policy.config), task, resolution=resolution
            )
            if len(_REPLAN_TABLES) > 64:
                _REPLAN_TABLES.clear()
            _REPLAN_TABLES[key] = table
        return table


def _initial_columns(faults: FaultProcess, deadline: float) -> int:
    """Fault-matrix width guess: expected arrivals within ~deadline.

    Runs can't outlive the deadline by more than one interval (the
    infeasibility check), so sizing to the deadline plus slack keeps
    the matrix small; rare long reps trigger deterministic whole-matrix
    refills.
    """
    rate = faults.mean_rate
    if not math.isfinite(rate) or rate <= 0:
        return 4
    expected = rate * deadline * 1.25
    return max(4, min(4096, int(expected + 4.0 * math.sqrt(expected) + 8.0)))


def _fault_matrix(
    faults: FaultProcess,
    rng: Optional[np.random.Generator],
    rows: int,
    cols: int,
) -> Tuple[np.ndarray, bool]:
    """``(arrival-time matrix, refillable)`` for one block.

    Row ``r`` holds rep ``r``'s fault arrival times, ascending, padded
    with ``inf``.  Scripted processes tile their (finite) script and
    are not refillable; stochastic processes draw one vectorised gap
    matrix and refill by extending every row at once, so the draw
    schedule is a pure function of block identity.
    """
    if isinstance(faults, ScriptedFaults):
        times = np.asarray(faults.times, dtype=np.float64)
        if times.size == 0:
            return np.full((rows, 1), math.inf), False
        return np.tile(times, (rows, 1)), False
    gaps = faults.block_gaps(rng, rows, cols)
    if gaps is None:  # pragma: no cover - guarded by kernel_supported
        raise ParameterError(
            f"{type(faults).__name__} does not support block pre-draws"
        )
    return np.cumsum(np.asarray(gaps, dtype=np.float64), axis=1), True


def _extend_fault_matrix(
    F: np.ndarray, faults: FaultProcess, rng: np.random.Generator
) -> np.ndarray:
    """Append one more gap block to every row (deterministic refill)."""
    rows, cols = F.shape
    gaps = np.asarray(
        faults.block_gaps(rng, rows, cols), dtype=np.float64
    )
    extra = F[:, -1:] + np.cumsum(gaps, axis=1)
    return np.hstack((F, extra))


def accumulate_range_fast(
    task: TaskSpec,
    policy_factory: PolicyFactory,
    *,
    start: int,
    stop: int,
    seed: int = 0,
    faults: Optional[FaultProcess] = None,
    energy_model: Optional[EnergyModel] = None,
    faults_during_overhead: bool = False,
    limits: SimulationLimits = SimulationLimits(),
    resolution: int = ReplanTable.DEFAULT_RESOLUTION,
) -> CellAccumulator:
    """Reps ``[start, stop)`` of a cell through the fast kernel.

    Signature-compatible with the exact
    :func:`~repro.sim.montecarlo.accumulate_range`; out-of-scope cells
    delegate to it wholesale (see module docstring).  ``start`` is the
    block identity: the block's Philox stream is
    ``RandomSource(seed).fast_block_stream(start)``, so for a fixed
    chunk size every backend and worker count reproduces the same
    estimates — fast mode's block-determinism contract.
    """
    if start < 0 or stop < start:
        raise ParameterError(f"need 0 <= start <= stop, got [{start}, {stop})")
    count = stop - start
    if count == 0:
        return CellAccumulator()
    if faults is None:
        faults = PoissonFaults(task.fault_rate)
    if energy_model is None:
        energy_model = default_energy_model()
    policy = policy_factory()
    if not kernel_supported(task, policy, faults):
        from repro.sim.montecarlo import accumulate_range

        return accumulate_range(
            task,
            policy_factory,
            start=start,
            stop=stop,
            seed=seed,
            faults=faults,
            energy_model=energy_model,
            faults_during_overhead=faults_during_overhead,
            limits=limits,
        )
    slab = _worker_slab(count)

    # -- initial (speed, plan): every rep starts identically ----------
    state = ExecutionState.fresh(task)
    policy.start(state)
    plan0 = policy.plan(state)
    f0 = state.frequency
    kind = _KIND_CODES[plan0.sub_kind]
    ivf0 = plan0.interval_time * f0
    if ivf0 < 0:
        raise ParameterError(f"cannot advance by negative cycles: {ivf0}")
    pm0 = plan0.m
    mf0 = _effective_subdivisions(pm0, ivf0)
    costs = task.costs
    sub_cost = costs.cycles_of(plan0.sub_kind)
    cscp_c = costs.checkpoint_cycles
    voltage_of = energy_model.voltage_of
    nproc = energy_model.n_processors
    v0 = voltage_of(f0)
    coef0 = nproc * v0 * v0
    coef_by_freq = {f0: coef0}
    table = replan_table_for(policy, task, resolution=resolution)

    # -- the block's fault slab ---------------------------------------
    rng = RandomSource(seed).fast_block_stream(start)
    F, refillable = _fault_matrix(
        faults, rng, count, _initial_columns(faults, task.deadline)
    )

    return _run_block(
        F, refillable, faults, rng, count, task, policy, table,
        kind, f0, coef0, coef_by_freq, voltage_of, nproc,
        ivf0, pm0, mf0, sub_cost, cscp_c, limits,
        faults_during_overhead, slab,
    )


def _run_block(
    F,
    refillable,
    faults,
    rng,
    count,
    task,
    policy,
    table,
    kind,
    f0,
    coef0,
    coef_by_freq,
    voltage_of,
    nproc,
    ivf0,
    pm0,
    mf0,
    sub_cost,
    cscp_c,
    limits,
    overhead_corrupting,
    slab,
):
    """The rep-synchronous vectorised engine (see module docstring)."""
    n = count
    deadline = task.deadline
    horizon = limits.horizon(task)
    max_intervals = limits.max_intervals
    eps = _CYCLE_EPS

    clock = np.zeros(n)
    rem = np.full(n, task.cycles, dtype=np.float64)
    fl = np.full(n, float(task.fault_budget))
    en = np.zeros(n)
    freq = np.full(n, f0)
    coef = np.full(n, coef0)
    ivf = np.full(n, ivf0)
    pm = np.full(n, pm0, dtype=np.int64)
    mf = np.full(n, mf0, dtype=np.int64)
    det = np.zeros(n, dtype=np.int64)
    cp = np.zeros(n, dtype=np.int64)
    subs = np.zeros(n, dtype=np.int64)
    intervals = np.zeros(n, dtype=np.int64)
    completed = np.zeros(n, dtype=bool)
    running = np.ones(n, dtype=bool)
    ptr = np.zeros(n, dtype=np.int64)

    is_scp = kind == _KIND_SCP
    is_cscp = kind == _KIND_CSCP
    derived: dict = {}  # packed bucket key -> values incl. coefficient
    cycles_t = task.cycles
    resolution_q = table.resolution
    rc_step = table.rc_step
    dl_step = table.dl_step
    shared = table._packed  # written only for on-table (key >= 0) rows

    while True:
        a = np.flatnonzero(running)
        if a.size == 0:
            break
        # -- loop-top checks, in the exact executor's order -----------
        fin = rem[a] <= eps
        if fin.any():
            rows = a[fin]
            running[rows] = False
            completed[rows] = True
            a = a[~fin]
            if a.size == 0:
                continue
        intervals[a] += 1
        if (intervals[a] > max_intervals).any():
            raise SimulationError(
                f"run exceeded {max_intervals} CSCP intervals; "
                "policy/executor inconsistency"
            )
        doomed = (rem[a] / freq[a] > deadline - clock[a]) | (clock[a] > horizon)
        if doomed.any():
            running[a[doomed]] = False  # completed stays False
            a = a[~doomed]
            if a.size == 0:
                continue

        # -- bulk-skip provably clean, non-tail intervals -------------
        # Between faults a rep's plan is frozen, so a stretch of k
        # identical intervals — no arrival inside, no tail clamp, and
        # every loop-top check passing (each bound is monotone in k) —
        # collapses to closed-form updates.  The interval the next
        # arrival lands in (or any bound's first violation) is left to
        # the per-interval logic below.
        while refillable and (ptr[a] >= F.shape[1]).any():
            F = _extend_fault_matrix(F, faults, rng)
        idx = np.minimum(ptr[a], F.shape[1] - 1)
        t_next = np.where(ptr[a] >= F.shape[1], math.inf, F[a, idx])
        freq_a = freq[a]
        clock_a = clock[a]
        rem_a = rem[a]
        ivf_a = ivf[a]
        mf_a = mf[a]
        full_nt = ivf_a + (mf_a - 1) * sub_cost + cscp_c
        span = full_nt / freq_a
        with np.errstate(invalid="ignore"):
            k_fault = np.where(
                np.isinf(t_next), math.inf, (t_next - clock_a) / span
            )
        k = np.minimum(
            np.minimum(k_fault, rem_a / ivf_a),
            np.minimum(
                (freq_a * (deadline - clock_a) - rem_a) / (full_nt - ivf_a),
                (horizon - clock_a) * freq_a / full_nt,
            ),
        )
        k = np.minimum(k, (max_intervals - intervals[a]).astype(np.float64))
        k = np.floor(k).astype(np.int64)
        np.maximum(k, 0, out=k)
        # Strictness guard: the arrival must fall beyond the last
        # skipped interval's end (float division can round up).
        k = np.where(clock_a + k * span >= t_next, k - 1, k)
        np.maximum(k, 0, out=k)
        skip = k > 0
        if skip.any():
            rows = a[skip]
            ks = k[skip]
            kf = ks.astype(np.float64)
            # The loop top already counted the stretch's first interval.
            intervals[rows] += ks - 1
            clock[rows] = clock_a[skip] + kf * span[skip]
            rem[rows] = rem_a[skip] - kf * ivf_a[skip]
            en[rows] += coef[rows] * (kf * full_nt[skip])
            cp[rows] += ks
            subs[rows] += ks * (mf_a[skip] - 1)
            keep = ~skip
            a = a[keep]
            if a.size == 0:
                continue
            freq_a = freq_a[keep]
            clock_a = clock_a[keep]
            rem_a = rem_a[keep]
            ivf_a = ivf_a[keep]

        # -- this interval's geometry (tail clamp inline) -------------
        n_a = a.size
        tail = rem_a < ivf_a
        iv = np.where(tail, rem_a, ivf_a)
        m = mf[a].copy()
        if tail.any():
            iv_t = iv[tail]
            largest = (iv_t / _MIN_SUB_CYCLES).astype(np.int64)
            np.maximum(largest, 1, out=largest)
            m_t = np.minimum(pm[a][tail], largest)
            np.maximum(m_t, 1, out=m_t)
            m[tail] = m_t
        sub = iv / m
        period = sub + sub_cost
        full_c = iv + (m - 1) * sub_cost + cscp_c

        # -- first corrupting fault, classified arithmetically --------
        # u = fault offset in cycles from interval start; a fault in
        # exec window w ∈ (g·period, g·period + sub] always corrupts,
        # overhead windows (interior boundaries, the closing CSCP)
        # corrupt only with faults_during_overhead.  Probing advances
        # per-rep cursors past non-corrupting arrivals; consumption is
        # settled from the final clock below.
        u_hit = np.full(n_a, math.inf)
        g_hit = np.zeros(n_a, dtype=np.int64)
        closing_hit = np.zeros(n_a, dtype=bool)
        scan = ptr[a].copy()
        unres = np.ones(n_a, dtype=bool)
        rounds = 0
        while True:
            cand = np.flatnonzero(unres)
            if cand.size == 0:
                break
            rounds += 1
            if rounds > _MAX_SCAN_ROUNDS:
                raise SimulationError(
                    "fault classification failed to converge; "
                    "kernel/process inconsistency"
                )
            k = scan[cand]
            if (k >= F.shape[1]).any():
                if refillable:
                    F = _extend_fault_matrix(F, faults, rng)
                    continue
                k = np.minimum(k, F.shape[1] - 1)
                t = F[a[cand], k]
                t = np.where(scan[cand] >= F.shape[1], math.inf, t)
            else:
                t = F[a[cand], k]
            u = (t - clock_a[cand]) * freq_a[cand]
            beyond = u > full_c[cand]
            m_c = m[cand]
            sub_c = sub[cand]
            per_c = period[cand]
            u_safe = np.where(beyond, 0.0, u)
            closing = u_safe > (m_c - 1) * per_c + sub_c
            g = np.ceil(u_safe / per_c).astype(np.int64) - 1
            np.clip(g, 0, m_c - 1, out=g)
            in_exec = (u_safe - g * per_c) <= sub_c
            corrupting = ~beyond & (
                (~closing & in_exec) | overhead_corrupting
            )
            hit = cand[corrupting]
            u_hit[hit] = u[corrupting]
            g_hit[hit] = np.where(
                closing[corrupting], m_c[corrupting] - 1, g[corrupting]
            )
            closing_hit[hit] = closing[corrupting]
            resolved = beyond | corrupting
            unres[cand[resolved]] = False
            scan[cand[~resolved]] += 1

        # -- settle the interval --------------------------------------
        corrupt = np.isfinite(u_hit)
        if is_scp:
            early = np.zeros(n_a, dtype=bool)
            committed = np.where(corrupt, g_hit * sub, 0.0)
        elif is_cscp:
            # Every clean interior CSCP stored: roll back to the last.
            early = corrupt & ~closing_hit & (g_hit < m - 1)
            committed = np.where(corrupt, g_hit * sub, 0.0)
        else:  # CCP: rollback always reaches the opening CSCP
            early = corrupt & ~closing_hit & (g_hit < m - 1)
            committed = np.zeros(n_a)
        elapsed = np.where(early, (g_hit + 1) * period, full_c)
        cp[a] += np.where(early, 0, 1)
        subs[a] += np.where(early, g_hit + 1, m - 1)
        rem[a] = rem_a - np.where(corrupt, committed, iv)
        en[a] += coef[a] * elapsed
        clock_new = clock_a + elapsed / freq_a
        clock[a] = clock_new
        det[a] += corrupt
        fl[a] -= corrupt
        # Faults at or before the new clock are consumed (window
        # contiguity); later ones — including any past an early CCP
        # detection — stay pending, exactly like the exact stream.
        ptr[a] = (F[a] <= clock_new[:, None]).sum(axis=1)

        # -- per-fault replan through the quantised table -------------
        # Steady state is one int-dict probe per fault: the bucket key
        # is packed vectorised (mirroring the table's own bucketing),
        # and a hit returns the fully derived per-rep values.  Misses —
        # and every query when the table is in exactness mode
        # (resolution 0) or off-table — resolve through the table, so
        # the values are always bucket-centre pure (fill-order free).
        faulted = a[corrupt]
        if faulted.size:
            rem_f = rem[faulted]
            dl_f = deadline - clock[faulted]
            fl_f = fl[faulted]
            if resolution_q:
                on = (
                    (dl_f > 0.0)
                    & (dl_f <= deadline)
                    & (rem_f > 0.0)
                    & (rem_f <= cycles_t)
                )
                i_q = (np.where(on, rem_f, 0.0) / rc_step).astype(
                    np.int64
                )
                j_q = (np.where(on, dl_f, 0.0) / dl_step).astype(
                    np.int64
                )
                fl_i = fl_f.astype(np.int64) + 2048
                packed = np.where(
                    on,
                    ((i_q * resolution_q + j_q) << 12) | fl_i,
                    np.int64(-1),
                ).tolist()
            else:
                packed = [-1] * faulted.size
            out = [None] * faulted.size
            get = derived.get
            sget = shared.get
            lookup = table.lookup
            rem_l = rem_f.tolist()
            dl_l = dl_f.tolist()
            fl_l = fl_f.tolist()
            for p, key in enumerate(packed):
                d = get(key) if key >= 0 else None
                if d is None:
                    s = sget(key) if key >= 0 else None
                    if s is None:
                        fq, it, pmv = lookup(
                            rem_l[p], dl_l[p], fl_l[p]
                        )
                        ivf_r = it * fq
                        s = (
                            fq,
                            ivf_r,
                            pmv,
                            _effective_subdivisions(pmv, ivf_r),
                        )
                        if key >= 0:
                            shared[key] = s
                    fq = s[0]
                    c = coef_by_freq.get(fq)
                    if c is None:
                        v = voltage_of(fq)
                        c = nproc * v * v
                        coef_by_freq[fq] = c
                    d = s + (c,)
                    if key >= 0:
                        derived[key] = d
                out[p] = d
            fq_a, ivf_n, pm_n, mf_n, c_a = zip(*out)
            freq[faulted] = fq_a
            ivf[faulted] = ivf_n
            pm[faulted] = pm_n
            mf[faulted] = mf_n
            coef[faulted] = c_a

    timely = completed & (clock <= deadline + eps)
    slab.timely[:n] = timely
    slab.energy[:n] = en
    slab.finish[:n] = clock
    slab.detected[:n] = det
    slab.checkpoints[:n] = cp
    slab.sub_checkpoints[:n] = subs
    return slab.fold(n)
