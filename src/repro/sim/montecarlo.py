"""Monte-Carlo harness: repeated runs → the paper's (P, E) estimates.

One :func:`estimate` call reproduces one cell of the paper's tables:
``reps`` independent runs of a (task, scheme) pair, aggregated into the
probability of timely completion and the mean energy of timely runs
(``NaN`` when no run is timely — the paper's own convention), plus the
all-runs energy and diagnostic counters that the paper does not report
but a user of the library will want.

Rep ``i`` of a cell always draws its fault realisation from
``RandomSource(seed).substream(i)`` — a ``SeedSequence`` spawn keyed by
the absolute rep index, never by worker or block (a block seeds its
reps in one vectorised pass, :meth:`~repro.sim.rng.RandomSource.
substream_range`, with the same streams).  Aggregation is
*blocked*: reps accumulate into fixed-size blocks of O(1) streaming
moments (:mod:`repro.sim.metrics`), merged in block order.  That
discipline is what lets :mod:`repro.sim.parallel` shard a cell across
processes (``estimate(..., runner=BatchRunner(ProcessBackend(8)))``)
— or any other :mod:`~repro.sim.backends` backend — and still return
the bit-identical :class:`CellEstimate` of a one-worker pass, without
ever shipping raw per-rep observations.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

import numpy as np

from repro.choices import KERNEL_NAMES
from repro.errors import ParameterError
from repro.sim.energy import EnergyModel
from repro.sim.executor import (
    RunResult,
    SimulationLimits,
    default_energy_model,
    execute_once,
    fault_free_trajectory,
    simulate_run,
)
from repro.sim.faults import FaultProcess, PoissonFaults
from repro.sim.metrics import (
    CellEstimate,
    MeanEstimate,
    MomentAccumulator,
    ProportionAccumulator,
    ProportionEstimate,
)
from repro.sim.rng import RandomSource
from repro.sim.task import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.schemes import CheckpointPolicy
    from repro.sim.parallel import BatchRunner

__all__ = [
    "CellAccumulator",
    "CellEstimate",
    "CellExpectation",
    "RunSlab",
    "accumulate_range",
    "estimate",
    "run_range",
]

PolicyFactory = Callable[[], "CheckpointPolicy"]


def run_range(
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
) -> List[RunResult]:
    """Execute reps ``start .. stop-1`` of a cell and return every result.

    ``policy_factory`` must build a fresh policy per run (policies cache
    plans).  Rep ``i`` draws from ``RandomSource(seed).substream(i)``
    whatever the range bounds, so results are reproducible, growing
    ``stop`` never changes earlier reps, and concatenating shards in
    rep order reproduces one ``[0, reps)`` range exactly.  This is the
    per-rep reference that :func:`accumulate_range`, the path every
    backend runs, is held to bit for bit.
    """
    if start < 0 or stop < start:
        raise ParameterError(f"need 0 <= start <= stop, got [{start}, {stop})")
    if faults is None:
        faults = PoissonFaults(task.fault_rate)
    if energy_model is None:
        energy_model = EnergyModel.paper_dmr()
    return [
        simulate_run(
            task,
            policy_factory(),
            faults,
            energy_model,
            stream,
            faults_during_overhead=faults_during_overhead,
            limits=limits,
        )
        for stream in RandomSource(seed).substream_range(start, stop)
    ]


def estimate(
    task: TaskSpec,
    policy_factory: PolicyFactory,
    *,
    reps: int,
    seed: int = 0,
    faults: Optional[FaultProcess] = None,
    energy_model: Optional[EnergyModel] = None,
    faults_during_overhead: bool = False,
    limits: SimulationLimits = SimulationLimits(),
    runner: Optional["BatchRunner"] = None,
) -> CellEstimate:
    """Monte-Carlo estimate of one experiment cell (see module doc).

    Pass ``runner`` (a :class:`repro.sim.parallel.BatchRunner`) to shard
    the reps across worker processes; the estimate is identical to the
    serial one for the same ``seed`` and block size.  Without a runner
    the default serial runner is used, so the no-runner path follows
    the *same* blocked reduction as every parallel topology.
    """
    from repro.sim.parallel import BatchRunner, CellJob

    job = CellJob(
        task=task,
        policy_factory=policy_factory,
        reps=reps,
        seed=seed,
        faults=faults,
        energy_model=energy_model,
        faults_during_overhead=faults_during_overhead,
        limits=limits,
    )
    return (runner or BatchRunner()).run_cell(job)


class CellAccumulator:
    """Mergeable aggregation state behind a :class:`CellEstimate`.

    One accumulator summarises a contiguous block of a cell's reps;
    :meth:`merge` folds the next block in (blocks must be merged in rep
    order).  The payload is O(1) in the rep count: float statistics are
    streaming moment accumulators (count / compensated sum / Σx², see
    :class:`~repro.sim.metrics.MomentAccumulator`) and the diagnostic
    counters are exact integers.  Merging per-block accumulators in
    block order therefore reproduces the one-pass statistics without
    ever shipping raw observations — the property
    ``tests/test_parallel.py`` pins down.
    """

    __slots__ = (
        "timely",
        "energy_timely",
        "energy_all",
        "finish_timely",
        "detected_faults",
        "checkpoints",
        "sub_checkpoints",
    )

    def __init__(self) -> None:
        self.timely = ProportionAccumulator()
        self.energy_timely = MomentAccumulator()
        self.energy_all = MomentAccumulator()
        self.finish_timely = MomentAccumulator()
        self.detected_faults = 0
        self.checkpoints = 0
        self.sub_checkpoints = 0

    @property
    def reps(self) -> int:
        return self.timely.trials

    def add(self, result: RunResult) -> None:
        """Fold in one run."""
        self.timely.add(result.timely)
        self.energy_all.add(result.energy)
        if result.timely:
            self.energy_timely.add(result.energy)
            self.finish_timely.add(result.finish_time)
        self.detected_faults += result.detected_faults
        self.checkpoints += result.checkpoints
        self.sub_checkpoints += result.sub_checkpoints

    def add_all(self, results: Iterable[RunResult]) -> "CellAccumulator":
        for result in results:
            self.add(result)
        return self

    def merge(self, other: "CellAccumulator") -> "CellAccumulator":
        """Fold in the next shard (call in rep order)."""
        self.timely.merge(other.timely)
        self.energy_timely.merge(other.energy_timely)
        self.energy_all.merge(other.energy_all)
        self.finish_timely.merge(other.finish_timely)
        self.detected_faults += other.detected_faults
        self.checkpoints += other.checkpoints
        self.sub_checkpoints += other.sub_checkpoints
        return self

    def finalize(self) -> CellEstimate:
        """Close out into a :class:`CellEstimate`.

        The timely means follow the paper's convention: ``NaN`` when no
        run was timely (also the case when merging all-empty shards).
        """
        reps = self.reps
        if reps == 0:
            raise ParameterError("cannot summarise zero results")
        return CellEstimate(
            p_timely=self.timely.estimate(),
            energy_timely=self.energy_timely.estimate(),
            energy_all=self.energy_all.estimate(),
            mean_finish_time_timely=self.finish_timely.mean,
            mean_detected_faults=self.detected_faults / reps,
            mean_checkpoints=self.checkpoints / reps,
            mean_sub_checkpoints=self.sub_checkpoints / reps,
            reps=reps,
        )


@dataclass(slots=True)
class CellExpectation:
    """Mergeable rep-weighted expectations behind an analytic cell.

    The closed-form counterpart of :class:`CellAccumulator`: what a
    block of an :class:`~repro.sim.backends.AnalyticCellJob` returns —
    the cell's exact per-run expectations and the rep count they stand
    for.  :meth:`merge` adds the rep counts and takes the rep-weighted
    mean of each field, which leaves the fields untouched bit for bit
    when both sides hold the same cell (every block of a cell does), so
    the merged estimate is the same for any block size.
    """

    reps: int
    p_timely: float
    energy_timely: float
    energy_all: float
    finish_timely: float
    detected_faults: float
    checkpoints: float

    def merge(self, other: "CellExpectation") -> "CellExpectation":
        """Fold in another block (order-free: a weighted mean)."""
        total = self.reps + other.reps
        share = other.reps / total if total else 0.0
        for name in self.__slots__[1:]:
            mine = getattr(self, name)
            setattr(self, name, mine + (getattr(other, name) - mine) * share)
        self.reps = total
        return self

    def finalize(self) -> CellEstimate:
        """Close out into a :class:`CellEstimate` with zero-width intervals.

        ``E`` follows the paper's convention: ``NaN`` with count 0 when
        no run can be timely.
        """
        reps, p, energy = self.reps, self.p_timely, self.energy_all
        if reps == 0:
            raise ParameterError("cannot summarise zero results")
        e, timely = (self.energy_timely, reps) if p > 0.0 else (math.nan, 0)
        return CellEstimate(
            p_timely=ProportionEstimate(value=p, low=p, high=p, trials=reps),
            energy_timely=MeanEstimate(value=e, low=e, high=e, count=timely),
            energy_all=MeanEstimate(
                value=energy, low=energy, high=energy, count=reps
            ),
            mean_finish_time_timely=self.finish_timely,
            mean_detected_faults=self.detected_faults,
            mean_checkpoints=self.checkpoints,
            mean_sub_checkpoints=0.0,
            reps=reps,
        )


class RunSlab:
    """Reusable per-worker scratch arrays for one block of reps.

    The slab path writes each rep's outcome straight into preallocated
    NumPy columns and folds whole columns into the block's accumulators
    afterwards (:func:`accumulate_range`) — no per-rep
    :class:`~repro.sim.executor.RunResult`, no per-rep accumulator
    calls, no per-rep allocation beyond the simulation itself.  One
    slab per worker (thread) is reused across all blocks it executes;
    it grows to the largest block it has seen and never shrinks.
    """

    __slots__ = (
        "capacity",
        "timely",
        "energy",
        "finish",
        "detected",
        "checkpoints",
        "sub_checkpoints",
    )

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = 0
        self._grow(capacity)

    def _grow(self, capacity: int) -> None:
        self.capacity = capacity
        self.timely = np.empty(capacity, dtype=bool)
        self.energy = np.empty(capacity, dtype=np.float64)
        self.finish = np.empty(capacity, dtype=np.float64)
        self.detected = np.empty(capacity, dtype=np.int64)
        self.checkpoints = np.empty(capacity, dtype=np.int64)
        self.sub_checkpoints = np.empty(capacity, dtype=np.int64)

    def ensure(self, count: int) -> None:
        """Make room for a ``count``-rep block."""
        if count > self.capacity:
            self._grow(count)

    def fold(self, count: int) -> CellAccumulator:
        """Fold the first ``count`` filled rows into a fresh accumulator.

        Column-wise ``add_many`` feeds every accumulator the same
        values in the same rep order as per-rep
        :meth:`CellAccumulator.add` calls would, so the result is
        bit-identical to the RunResult-at-a-time path
        (``tests/test_executor_slab.py``).
        """
        timely = self.timely[:count]
        energy = self.energy[:count]
        accumulator = CellAccumulator()
        accumulator.timely.add_many(timely)
        accumulator.energy_timely.add_many(energy[timely])
        accumulator.energy_all.add_many(energy)
        accumulator.finish_timely.add_many(self.finish[:count][timely])
        accumulator.detected_faults = int(self.detected[:count].sum())
        accumulator.checkpoints = int(self.checkpoints[:count].sum())
        accumulator.sub_checkpoints = int(self.sub_checkpoints[:count].sum())
        return accumulator


_SLAB_STORE = threading.local()


def _worker_slab(count: int) -> RunSlab:
    """This worker's reusable slab, grown to at least ``count`` rows."""
    slab = getattr(_SLAB_STORE, "slab", None)
    if slab is None:
        slab = RunSlab(max(count, 256))
        _SLAB_STORE.slab = slab
    else:
        slab.ensure(count)
    return slab


def accumulate_range(
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
    kernel: str = "exact",
) -> CellAccumulator:
    """Reps ``[start, stop)`` of a cell, folded through a slab.

    The accumulator-producing twin of :func:`run_range` and the hot
    path behind :meth:`repro.sim.backends.CellJob.run_block`: identical
    simulation and identical rep-order accumulation (bit-for-bit — the
    same streams, the same arithmetic), but each run lands in reusable
    NumPy scratch instead of a :class:`RunResult`, and the block folds
    into the accumulators via vectorised ``add_many``.  A block of two
    or more reps also runs its cell's fault-free run once
    (:func:`~repro.sim.executor.fault_free_trajectory`, one extra
    ``policy_factory()`` call) and hands it to every rep, which then
    skips what it shares with that run.

    ``kernel`` selects the execution engine: ``"exact"`` (default) is
    this bit-identical per-rep path; ``"fast"`` routes the block to the
    vectorised, statistically-equivalent kernel
    (:func:`repro.sim.kernel.accumulate_range_fast`), which falls back
    here per block for unsupported cells.
    """
    if kernel not in KERNEL_NAMES:
        raise ParameterError(
            f"kernel must be 'exact' or 'fast', got {kernel!r}"
        )
    if kernel == "fast":
        from repro.sim.kernel import accumulate_range_fast

        return accumulate_range_fast(
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
    if start < 0 or stop < start:
        raise ParameterError(f"need 0 <= start <= stop, got [{start}, {stop})")
    count = stop - start
    if count == 0:
        return CellAccumulator()
    if faults is None:
        faults = PoissonFaults(task.fault_rate)
    if energy_model is None:
        energy_model = default_energy_model()
    slab = _worker_slab(count)
    timely = slab.timely
    energy = slab.energy
    finish = slab.finish
    detected = slab.detected
    checkpoints = slab.checkpoints
    sub_checkpoints = slab.sub_checkpoints
    # Every rep starts with the cell's fault-free run: run it once.
    trajectory = None
    if count > 1:
        trajectory = fault_free_trajectory(
            task,
            policy_factory(),
            energy_model,
            faults_during_overhead=faults_during_overhead,
            limits=limits,
        )
    streams = RandomSource(seed).substream_range(start, stop)
    for row, stream in enumerate(streams):
        outcome = execute_once(
            task,
            policy_factory(),
            faults,
            energy_model,
            stream,
            faults_during_overhead=faults_during_overhead,
            limits=limits,
            trajectory=trajectory,
        )
        timely[row] = outcome.timely
        energy[row] = outcome.energy
        finish[row] = outcome.finish_time
        detected[row] = outcome.detected_faults
        checkpoints[row] = outcome.checkpoints
        sub_checkpoints[row] = outcome.sub_checkpoints
    return slab.fold(count)
