"""Exact executor semantics, pinned with scripted fault times.

Every test here computes the full timeline by hand; any drift in
detection, rollback, overhead placement or energy accounting fails
loudly.  Cost model throughout: t_s=2, t_cp=20 (CSCP = 22 cycles),
t_r=0; paper energy model (4·cycles at f1, 8·cycles at f2).
"""

import pytest

from repro.core.checkpoints import CheckpointKind, CostModel
from repro.errors import ParameterError
from repro.sim.executor import SimulationLimits, simulate_run
from repro.sim.faults import PoissonFaults, ScriptedFaults
from repro.sim.task import TaskSpec
from repro.sim.trace import Trace

from tests.conftest import make_fixed_policy


def make_task(cycles=100.0, deadline=10_000.0, costs=None, **kw):
    return TaskSpec(
        cycles=cycles,
        deadline=deadline,
        fault_budget=kw.pop("fault_budget", 5),
        fault_rate=kw.pop("fault_rate", 1e-3),
        costs=costs or CostModel.scp_favourable(),
    )


class TestFaultFreeRuns:
    def test_single_interval_timing_and_energy(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=100.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        # 100 exec + 22 CSCP = 122 cycles = 122 time units at f1.
        assert result.completed and result.timely
        assert result.finish_time == pytest.approx(122.0)
        assert result.energy == pytest.approx(4 * 122.0)
        assert result.checkpoints == 1
        assert result.detected_faults == 0

    def test_multiple_intervals(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        # Two intervals of (50 + 22).
        assert result.finish_time == pytest.approx(144.0)
        assert result.checkpoints == 2

    def test_tail_interval_shorter(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=40.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        # (40+22) + (40+22) + (20+22) = 166.
        assert result.finish_time == pytest.approx(166.0)
        assert result.checkpoints == 3

    def test_scp_subdivision_overhead(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.SCP
        )
        result = simulate_run(task, policy, ScriptedFaults([]))
        # 100 exec + 3 interior stores (2 each) + CSCP 22.
        assert result.finish_time == pytest.approx(128.0)
        assert result.sub_checkpoints == 3
        assert result.checkpoints == 1

    def test_ccp_subdivision_overhead(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.CCP
        )
        result = simulate_run(task, policy, ScriptedFaults([]))
        # 100 exec + 3 interior compares (20 each) + CSCP 22.
        assert result.finish_time == pytest.approx(182.0)
        assert result.sub_checkpoints == 3

    def test_high_speed_halves_time_doubles_energy_rate(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=100.0, frequency=2.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        # 122 cycles at f2 → 61 time units, energy 8·122.
        assert result.finish_time == pytest.approx(61.0)
        assert result.energy == pytest.approx(8 * 122.0)
        assert result.cycles_by_frequency == {2.0: pytest.approx(122.0)}


class TestCscpRollback:
    def test_fault_detected_at_interval_end_rolls_back_whole_interval(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(task, policy, ScriptedFaults([30.0]))
        # Interval 1 (fails): 50 exec + 22 CSCP = 72.
        # Intervals 2,3 succeed: 2·72 = 144.  Total 216.
        assert result.finish_time == pytest.approx(216.0)
        assert result.detected_faults == 1
        assert result.rollbacks == 1
        assert result.checkpoints == 3
        assert result.completed and result.timely

    def test_two_faults_two_retries(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        # Second fault lands in the retry of interval 1 (72..122 exec window).
        result = simulate_run(task, policy, ScriptedFaults([30.0, 100.0]))
        # Attempts: 72 (fail), 72 (fail), 72 (ok), 72 (ok) = 288.
        assert result.finish_time == pytest.approx(288.0)
        assert result.detected_faults == 2

    def test_fault_during_overhead_ignored_by_default(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        # 55.0 falls inside the first CSCP window (50, 72].
        result = simulate_run(task, policy, ScriptedFaults([55.0]))
        assert result.detected_faults == 0
        assert result.finish_time == pytest.approx(144.0)
        assert result.injected_faults == 1  # consumed but harmless

    def test_fault_during_overhead_corrupts_when_enabled(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(
            task, policy, ScriptedFaults([55.0]), faults_during_overhead=True
        )
        # Detected at the same CSCP that contains it: interval 1 repeats.
        assert result.detected_faults == 1
        assert result.finish_time == pytest.approx(216.0)

    def test_rollback_cost_charged(self):
        costs = CostModel(store_cycles=2, compare_cycles=20, rollback_cycles=10)
        task = make_task(cycles=100.0, costs=costs)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(task, policy, ScriptedFaults([30.0]))
        assert result.finish_time == pytest.approx(216.0 + 10.0)

    def test_policy_notified_of_fault(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        simulate_run(task, policy, ScriptedFaults([30.0]))
        assert policy.fault_notifications == 1


class TestScpRollback:
    def test_rolls_back_to_last_clean_store(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.SCP
        )
        # Timeline: exec(0,25) s(25,27) exec(27,52) s(52,54) exec(54,79)
        # s(79,81) exec(81,106) CSCP(106,128).  Fault at 60 → sub 3.
        result = simulate_run(task, policy, ScriptedFaults([60.0]))
        # Clean boundary = 2 → 50 cycles commit; 50 remain.
        # Retry interval: min(100, 50)=50 with m=4: 50 exec + 3·2 + 22 = 78.
        assert result.finish_time == pytest.approx(128.0 + 78.0)
        assert result.detected_faults == 1
        assert result.completed

    def test_fault_in_first_subinterval_commits_nothing(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.SCP
        )
        result = simulate_run(task, policy, ScriptedFaults([10.0]))
        # Nothing committed: full interval repeats (128 + 128).
        assert result.finish_time == pytest.approx(256.0)

    def test_fault_in_last_subinterval_commits_three_quarters(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.SCP
        )
        result = simulate_run(task, policy, ScriptedFaults([90.0]))
        # Clean boundary 3 → 75 committed; retry 25 cycles with m=4
        # (clamped sub-lengths 6.25): 25 + 3·2 + 22 = 53.
        assert result.finish_time == pytest.approx(128.0 + 53.0)

    def test_detection_waits_for_cscp(self):
        # Unlike CCP, an SCP boundary does not detect: time runs to the
        # interval end even though the fault happened early.
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.SCP
        )
        trace = Trace()
        simulate_run(task, policy, ScriptedFaults([10.0]), recorder=trace)
        assert trace.rollbacks[0].time == pytest.approx(128.0)


class TestCcpRollback:
    def test_early_detection_at_next_compare(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.CCP
        )
        # Timeline: exec(0,25) c(25,45) exec(45,70) c(70,90) ...
        # Fault at 60 → detected at the compare ending 90.
        trace = Trace()
        result = simulate_run(
            task, policy, ScriptedFaults([60.0]), recorder=trace
        )
        assert trace.rollbacks[0].time == pytest.approx(90.0)
        # Nothing committed; retry the full interval:
        # 90 + (100 + 3·20 + 22) = 272.
        assert result.finish_time == pytest.approx(272.0)
        assert result.detected_faults == 1

    def test_fault_after_last_ccp_detected_at_cscp(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.CCP
        )
        # Last sub-interval is (135, 160) in the fault-free timeline:
        # exec(0,25) c(25,45) exec(45,70) c(70,90) exec(90,115) c(115,135)
        # exec(135,160) CSCP(160,182).
        trace = Trace()
        result = simulate_run(
            task, policy, ScriptedFaults([150.0]), recorder=trace
        )
        assert trace.rollbacks[0].time == pytest.approx(182.0)
        assert result.finish_time == pytest.approx(182.0 + 182.0)

    def test_ccp_commits_nothing_on_any_fault(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.CCP
        )
        result = simulate_run(task, policy, ScriptedFaults([10.0]))
        # Detected at first compare (ends 45); retry full interval (182).
        assert result.finish_time == pytest.approx(45.0 + 182.0)


class TestInteriorCscpRollback:
    """Interior CSCPs compare *and* store: each clean one is a rollback
    target.  Fault-free timeline (m=4, CSCP 22): exec(0,25) c(25,47)
    exec(47,72) c(72,94) exec(94,119) c(119,141) exec(141,166)
    CSCP(166,188)."""

    @staticmethod
    def _run(fault):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(
            interval_time=100.0, m=4, sub_kind=CheckpointKind.CSCP
        )
        trace = Trace()
        result = simulate_run(
            task, policy, ScriptedFaults([fault]), recorder=trace
        )
        return result, trace

    def test_fault_in_first_subinterval_commits_nothing(self):
        result, trace = self._run(10.0)
        # Detected at the first interior CSCP (47); the whole interval
        # repeats (188).
        assert [r.committed_cycles for r in trace.rollbacks] == [0.0]
        assert result.finish_time == pytest.approx(47.0 + 188.0)

    def test_early_detection_keeps_clean_boundaries(self):
        result, trace = self._run(60.0)
        # Detected at 94; the CSCP at 47 was clean: 25 cycles commit.
        # Retry 75 cycles with m=4: 75 + 3·22 + 22 = 163.
        assert [r.committed_cycles for r in trace.rollbacks] == [25.0]
        assert result.finish_time == pytest.approx(94.0 + 163.0)

    def test_detection_at_closing_cscp_keeps_verified_work(self):
        result, trace = self._run(150.0)
        # Detected at the closing CSCP (188); the three interior CSCPs
        # were clean: 75 cycles commit.  Retry 25: 25 + 3·22 + 22 = 113.
        assert [r.committed_cycles for r in trace.rollbacks] == [75.0]
        assert result.finish_time == pytest.approx(188.0 + 113.0)
        assert result.detected_faults == 1


class TestDeadlineHandling:
    def test_timely_false_when_finishing_late(self):
        task = make_task(cycles=100.0, deadline=130.0)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(task, policy, ScriptedFaults([30.0]))
        # Completion at 216 > 130, but the infeasibility break fires
        # first: remaining work can't fit.
        assert not result.timely
        assert not result.completed
        assert result.failure_reason == "deadline_infeasible"

    def test_completion_exactly_at_deadline_is_timely(self):
        task = make_task(cycles=100.0, deadline=122.0)
        policy = make_fixed_policy(interval_time=100.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        assert result.timely

    def test_infeasible_task_fails_immediately(self):
        task = make_task(cycles=200.0, deadline=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        assert not result.completed
        assert result.finish_time == 0.0

    def test_fast_policy_rescues_tight_deadline(self):
        task = make_task(cycles=200.0, deadline=150.0)
        policy = make_fixed_policy(interval_time=100.0, frequency=2.0)
        result = simulate_run(task, policy, ScriptedFaults([]))
        # 222 cycles at f2 = 111 ≤ 150.
        assert result.timely


class TestSafetyLimits:
    def test_max_intervals_guard(self):
        task = make_task(cycles=1e6, deadline=1e12, fault_rate=0.0)
        policy = make_fixed_policy(interval_time=1.0)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            simulate_run(
                task,
                policy,
                ScriptedFaults([]),
                limits=SimulationLimits(max_intervals=10),
            )

    def test_horizon_guard_breaks_runaway_runs(self):
        # Brutal fault rate: the task never converges; the horizon
        # (here below the generous deadline) stops it.
        task = make_task(cycles=100.0, deadline=1e5, fault_rate=1.0)
        policy = make_fixed_policy(interval_time=100.0)
        result = simulate_run(
            task,
            policy,
            PoissonFaults(1.0),
            rng=__import__("numpy").random.default_rng(0),
            limits=SimulationLimits(horizon_factor=0.5),
        )
        assert not result.completed
        assert result.failure_reason == "horizon"


class TestAccountingInvariants:
    def test_energy_equals_cycles_times_rate_single_speed(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=30.0)
        result = simulate_run(task, policy, ScriptedFaults([40.0, 90.0]))
        assert result.energy == pytest.approx(4 * result.cycles_executed)

    def test_injected_faults_counts_all_arrivals(self):
        task = make_task(cycles=100.0)
        policy = make_fixed_policy(interval_time=50.0)
        result = simulate_run(
            task, policy, ScriptedFaults([30.0, 55.0, 100.0])
        )
        # 30 corrupts interval 1; 55 lands in its CSCP (ignored); 100
        # lands in the retry's execution (72..122) and corrupts it.
        assert result.injected_faults == 3
        assert result.detected_faults == 2

    def test_negative_interval_plan_rejected(self):
        with pytest.raises(ParameterError):
            make_fixed_policy(interval_time=-5.0)
