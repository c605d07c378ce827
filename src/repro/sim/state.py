"""Mutable per-run execution state shared by executor and policies.

The paper's procedures track three running quantities (figs. 3, 6, 7):
``Rc`` (remaining cycles), ``Rd`` (time left before the deadline) and
``Rf`` (remaining fault budget), plus the current speed ``f``.  The
executor owns and updates this state; policies read it to make interval
and speed decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.task import TaskSpec

__all__ = ["ExecutionState"]


@dataclass(slots=True)
class ExecutionState:
    """Live state of one simulated task execution.

    ``slots=True``: the executor hot loop synchronises these fields
    before every policy callback, and slotted attribute access keeps
    that bookkeeping cheap at Monte-Carlo scale.
    """

    task: TaskSpec
    remaining_cycles: float
    faults_left: float
    clock: float = 0.0
    frequency: float = 1.0
    detected_faults: int = 0
    injected_faults: int = 0
    checkpoints: int = 0
    sub_checkpoints: int = 0
    rollbacks: int = 0

    @classmethod
    def fresh(cls, task: TaskSpec) -> "ExecutionState":
        """Initial state: full work, full deadline, full fault budget."""
        return cls(
            task=task,
            remaining_cycles=task.cycles,
            faults_left=float(task.fault_budget),
        )

    @property
    def deadline_left(self) -> float:
        """``Rd = D − clock`` (may go negative once the run is doomed)."""
        return self.task.deadline - self.clock

    @property
    def remaining_time(self) -> float:
        """``Rt = Rc / f`` — fault-free time to finish at current speed."""
        return self.remaining_cycles / self.frequency
