"""Fault-tolerant multi-task scenario engine.

The engine binds the pieces the ``rts`` package already provides into
one scenario: given a generated workload, pick the **lowest-energy
feasible** operating point — the EAPS selection rule: walk the
frequency ladder from slow to fast, keep the candidates where the
checkpoint-aware schedulability test passes, and among those take the
one with the smallest worst-case energy rate — then drive
:func:`repro.rts.scheduler.simulate_schedule` at that point with each
task checkpointing at its optimal equidistant interval
(``n* = sqrt(k·N/C)``, the same Lee–Shin–Min machinery behind the
paper's ``I2``).

:class:`TasksetCellJob` wraps one such scenario as a cell job
satisfying the executor's block protocol (``reps`` / ``seed`` /
``run_block``), so taskset cells shard across any backend and land in
the content-addressed cache exactly like single-task cells.  The
workload is *regenerated inside the worker* from ``(seed, params)`` —
nothing stochastic ships in the job — and every rep draws its fault
realisation from a tagged per-rep stream, making estimates
deterministic per rep (stronger than the per-block contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ParameterError, require_count
from repro.rts.feasibility import (
    edf_feasible,
    fault_tolerant_wcet,
    optimal_checkpoint_count,
    rm_response_times,
)
from repro.rts.generators import WorkloadParams, generate_taskset
from repro.rts.scheduler import simulate_schedule
from repro.rts.taskset import TaskSet
from repro.sim.energy import EnergyModel
from repro.sim.montecarlo import CellAccumulator

__all__ = ["EngineConfig", "TasksetCellJob", "select_configuration"]

DEFAULT_FREQUENCIES: Tuple[float, ...] = (1.0, 2.0)

# Domain tag for per-rep fault streams (disjoint from the generator's
# stream and from the single-task executor's substreams).
_REP_TAG = 0x5EDF0B5


@dataclass(frozen=True)
class EngineConfig:
    """One selected operating point for a workload.

    ``feasible`` is False when no ladder frequency passes the
    schedulability test; the engine then runs flat out at the highest
    frequency (best effort — the miss ratio reports the damage).
    """

    frequency: float
    feasible: bool
    energy_rate: float
    checkpoint_counts: Tuple[Tuple[str, int], ...]


def _worst_case_energy_rate(
    taskset: TaskSet, frequency: float, model: EnergyModel
) -> float:
    """Σ per-task worst-case energy per time unit at ``frequency``.

    Each job's fault-tolerant WCET (time at ``frequency``) converts
    back to cycles actually executed at that speed; one job per period
    gives the rate.  A worst-case proxy, not the simulated energy —
    it only needs to *rank* ladder frequencies consistently.
    """
    rate = 0.0
    for task in taskset:
        wcet_time = fault_tolerant_wcet(
            task.cycles,
            task.fault_budget,
            task.costs.checkpoint_cycles,
            rollback=task.costs.rollback_cycles,
            frequency=frequency,
        )
        rate += model.segment_energy(frequency, wcet_time * frequency) / task.period
    return rate


def _is_feasible(taskset: TaskSet, frequency: float, policy: str) -> bool:
    if policy == "edf":
        return edf_feasible(taskset, frequency)
    responses = rm_response_times(taskset, frequency)
    return all(r is not None for r in responses.values())


def select_configuration(
    taskset: TaskSet,
    frequencies: Tuple[float, ...] = DEFAULT_FREQUENCIES,
    *,
    policy: str = "edf",
    energy_model: Optional[EnergyModel] = None,
) -> EngineConfig:
    """Feasibility-then-lowest-energy operating-point selection.

    Among ladder frequencies where the checkpoint-aware test passes,
    pick the one minimising the worst-case energy rate (ties go to the
    slower speed).  If none is feasible, fall back to the fastest
    frequency with ``feasible=False``.  Checkpoint counts are always
    the per-task optima ``n* = sqrt(k·N/C)``.
    """
    if not frequencies:
        raise ParameterError("need at least one candidate frequency")
    if any(f <= 0 for f in frequencies):
        raise ParameterError(f"frequencies must be > 0, got {frequencies}")
    if policy not in ("edf", "rm"):
        raise ParameterError(f"policy must be 'edf' or 'rm', got {policy!r}")
    if energy_model is None:
        energy_model = EnergyModel.paper_dmr()

    ladder = tuple(sorted(frequencies))
    best: Optional[Tuple[float, float]] = None  # (energy_rate, frequency)
    for frequency in ladder:
        if not _is_feasible(taskset, frequency, policy):
            continue
        rate = _worst_case_energy_rate(taskset, frequency, energy_model)
        if best is None or rate < best[0] - 1e-12:
            best = (rate, frequency)

    if best is None:
        frequency = ladder[-1]
        feasible = False
        rate = _worst_case_energy_rate(taskset, frequency, energy_model)
    else:
        rate, frequency = best
        feasible = True

    counts = tuple(
        (
            task.name,
            optimal_checkpoint_count(
                task.cycles, task.fault_budget, task.costs.checkpoint_cycles
            )
            if task.fault_budget > 0
            else 1,
        )
        for task in taskset
    )
    return EngineConfig(
        frequency=frequency,
        feasible=feasible,
        energy_rate=rate,
        checkpoint_counts=counts,
    )


def _chunk_overrides(
    taskset: TaskSet, config: EngineConfig
) -> Dict[str, float]:
    """Equidistant checkpoint intervals implied by the selected counts."""
    counts = dict(config.checkpoint_counts)
    return {
        task.name: (task.cycles / config.frequency) / counts[task.name]
        for task in taskset
    }


def _rep_seed(seed: int, index: int) -> int:
    """Scheduler seed for rep ``index`` — pure function of cell identity."""
    sequence = np.random.SeedSequence(
        entropy=(int(seed) & 0xFFFFFFFFFFFFFFFF, _REP_TAG, int(index))
    )
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TasksetCellJob:
    """One taskset study cell: a workload × its selected operating point.

    Satisfies the block protocol (``reps``/``seed``/``run_block``), so
    :class:`~repro.sim.parallel.BatchRunner` shards it like any cell.
    All fields are plain data — picklable for process/distributed
    backends and describable for cell identity (the energy model is
    deliberately *not* a field: the paper model is applied at run time,
    keeping the job free of unpicklable closures).
    """

    params: WorkloadParams
    horizon: float
    policy: str = "edf"
    frequencies: Tuple[float, ...] = DEFAULT_FREQUENCIES
    reps: int = 1
    seed: int = 0
    drop_late_jobs: bool = True

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        if self.policy not in ("edf", "rm"):
            raise ParameterError(
                f"policy must be 'edf' or 'rm', got {self.policy!r}"
            )
        require_count("reps", self.reps, 1)
        require_count("seed", self.seed, 0)
        if not self.frequencies or any(f <= 0 for f in self.frequencies):
            raise ParameterError(
                f"frequencies must be a non-empty tuple of positive "
                f"speeds, got {self.frequencies!r}"
            )

    def scenario(self) -> Tuple[TaskSet, EngineConfig, Dict[str, float]]:
        """Regenerate the workload and its operating point (pure)."""
        taskset = generate_taskset(self.seed, self.params)
        config = select_configuration(
            taskset, self.frequencies, policy=self.policy
        )
        return taskset, config, _chunk_overrides(taskset, config)

    def run_block(self, block: int, start: int, stop: int) -> CellAccumulator:
        """Run reps ``[start, stop)`` of this cell into an accumulator.

        Rep ``i`` seeds the schedule simulator from a pure function of
        ``(cell seed, i)`` whatever the block bounds — per-rep
        determinism, so every backend, worker count, and chunk size
        produces bit-identical estimates.
        """
        if start < 0 or stop < start:
            raise ParameterError(
                f"need 0 <= start <= stop, got [{start}, {stop})"
            )
        taskset, config, overrides = self.scenario()
        model = EnergyModel.paper_dmr()
        accumulator = CellAccumulator()
        for index in range(start, stop):
            result = simulate_schedule(
                taskset,
                horizon=self.horizon,
                policy=self.policy,
                frequency=config.frequency,
                seed=_rep_seed(self.seed, index),
                energy_model=model,
                drop_late_jobs=self.drop_late_jobs,
                chunk_overrides=overrides,
            )
            timely = all(j.deadline_met for j in result.jobs)
            accumulator.timely.add(timely)
            accumulator.energy_all.add(result.energy)
            if timely:
                accumulator.energy_timely.add(result.energy)
                accumulator.finish_timely.add(result.makespan)
            accumulator.detected_faults += result.total_faults
            accumulator.checkpoints += result.total_checkpoints
        return accumulator
