"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro.core.checkpoints import CheckpointKind, CostModel
from repro.core.schemes import CheckpointPolicy, Plan
from repro.sim.task import TaskSpec

#: A ``sitecustomize`` that makes every ``import numpy`` fail: put first
#: on ``PYTHONPATH``, it proves a command never loads numpy.
NUMPY_BLOCKER = """\
import sys


class _BlockNumPy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, _BlockNumPy())
"""


def repro_env(*paths: str) -> Dict[str, str]:
    """``os.environ`` with ``paths``, then this checkout's ``src``,
    first on ``PYTHONPATH`` (for ``python -m repro`` subprocesses)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [*paths, src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def numpy_blocked_env(tmp_path_factory) -> Dict[str, str]:
    """A subprocess environment in which ``import numpy`` fails."""
    blocker = tmp_path_factory.mktemp("nonumpy")
    (blocker / "sitecustomize.py").write_text(NUMPY_BLOCKER)
    return repro_env(str(blocker))


def table_result(table_id: str, *, reps: int, seed: int):
    """Table ``table_id`` run as a table-kind study (serial), paired
    with the paper's cells as the CLI pairs it."""
    from repro.api import Study, StudySpec
    from repro.experiments.tables import assemble_table_result

    study = Study(StudySpec(kind="table", table=table_id, reps=reps, seed=seed))
    return assemble_table_result(
        study.spec.resolve_table(),
        reps=reps,
        seed=seed,
        estimates=[record.estimate for record in study.run()],
    )


class FixedPlanPolicy(CheckpointPolicy):
    """Test scaffold: a policy with a pinned plan and frequency.

    Lets executor tests exercise exact rollback/timing semantics
    without involving the adaptive machinery.
    """

    name = "fixed-plan"

    def __init__(
        self,
        interval_time: float,
        m: int = 1,
        sub_kind: CheckpointKind = CheckpointKind.CSCP,
        frequency: float = 1.0,
    ) -> None:
        self._plan = Plan(interval_time=interval_time, m=m, sub_kind=sub_kind)
        self._frequency = frequency
        self.fault_notifications = 0

    def start(self, state) -> None:
        state.frequency = self._frequency

    def plan(self, state) -> Plan:
        return self._plan

    def on_fault(self, state) -> None:
        self.fault_notifications += 1


@pytest.fixture
def scp_costs() -> CostModel:
    """Paper §4.1 costs: t_s=2, t_cp=20 (c=22)."""
    return CostModel.scp_favourable()


@pytest.fixture
def ccp_costs() -> CostModel:
    """Paper §4.2 costs: t_s=20, t_cp=2 (c=22)."""
    return CostModel.ccp_favourable()


@pytest.fixture
def paper_task_1a(scp_costs) -> TaskSpec:
    """Table 1(a) first row: U=0.76, λ=1.4e-3, k=5."""
    return TaskSpec(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=scp_costs,
    )


@pytest.fixture
def small_task(scp_costs) -> TaskSpec:
    """A tiny task for deterministic executor tests."""
    return TaskSpec(
        cycles=100.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1e-3,
        costs=scp_costs,
    )


def make_fixed_policy(
    interval_time: float,
    m: int = 1,
    sub_kind: CheckpointKind = CheckpointKind.CSCP,
    frequency: float = 1.0,
) -> FixedPlanPolicy:
    return FixedPlanPolicy(interval_time, m, sub_kind, frequency)
