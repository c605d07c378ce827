"""Unit tests for the execution state."""

import pytest

from repro.core.checkpoints import CostModel
from repro.sim.state import ExecutionState
from repro.sim.task import TaskSpec


@pytest.fixture
def task():
    return TaskSpec(
        cycles=1000.0,
        deadline=5000.0,
        fault_budget=3,
        fault_rate=1e-3,
        costs=CostModel.scp_favourable(),
    )


class TestExecutionState:
    def test_fresh_state(self, task):
        state = ExecutionState.fresh(task)
        assert state.remaining_cycles == 1000.0
        assert state.faults_left == 3.0
        assert state.clock == 0.0
        assert state.frequency == 1.0
        assert state.deadline_left == 5000.0

    def test_deadline_left_tracks_clock(self, task):
        state = ExecutionState.fresh(task)
        state.clock = 1200.0
        assert state.deadline_left == 3800.0
        state.clock = 6000.0
        assert state.deadline_left == -1000.0  # overshoot is visible

    def test_remaining_time_scales_with_frequency(self, task):
        state = ExecutionState.fresh(task)
        assert state.remaining_time == 1000.0
        state.frequency = 2.0
        assert state.remaining_time == 500.0

    def test_counters_start_empty(self, task):
        state = ExecutionState.fresh(task)
        assert state.detected_faults == 0
        assert state.checkpoints == 0
