"""Deterministic end-to-end runs of the *adaptive* schemes.

Scripted fault times drive the full fig.-6/7 machinery — speed
selection, interval(), num_SCP replanning — and the tests assert the
externally visible consequences (speed switches, interval changes,
budget decrements) rather than re-deriving every timestamp.
"""

from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.dvs import SpeedLadder
from repro.core.schemes import (
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
)
from repro.sim.executor import simulate_run
from repro.sim.faults import ScriptedFaults
from repro.sim.montecarlo import estimate
from repro.sim.task import TaskSpec
from repro.sim.trace import Trace


def make_task(**overrides):
    params = dict(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=CostModel.scp_favourable(),
    )
    params.update(overrides)
    return TaskSpec(**params)


class TestAdaptiveDVS:
    def test_fault_free_run_is_deterministic(self):
        task = make_task()
        a = simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults([]))
        b = simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults([]))
        assert a.finish_time == b.finish_time
        assert a.energy == b.energy
        assert a.completed and a.timely

    def test_starts_fast_when_f1_infeasible(self):
        # Table-1a parameters: t_est(f1) ≈ 10833 > 10000.
        task = make_task()
        trace = Trace()
        simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults([]), recorder=trace)
        assert trace.speeds[0].frequency == 2.0

    def test_switches_down_at_fault_when_slack_allows(self):
        task = make_task()
        trace = Trace()
        # One fault at t=1000: by then enough work retired at f2 that
        # t_est(Rc, f1) ≤ Rd → the policy drops to f1 (fig. 6 line 15).
        result = simulate_run(
            task, AdaptiveDVSPolicy(), ScriptedFaults([1000.0]), recorder=trace
        )
        assert result.detected_faults == 1
        frequencies = [s.frequency for s in trace.speeds]
        assert frequencies[0] == 2.0
        assert 1.0 in frequencies[1:]
        assert result.completed and result.timely

    def test_budget_decrements_per_detected_fault(self):
        task = make_task()
        result = simulate_run(
            task, AdaptiveDVSPolicy(), ScriptedFaults([500.0, 1500.0, 2500.0])
        )
        assert result.detected_faults == 3

    def test_infeasible_task_aborts_early(self):
        # N far beyond what f2 can deliver by D.
        task = make_task(cycles=25_000.0)
        result = simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults([]))
        assert not result.completed
        assert result.finish_time == 0.0


class TestAdaptiveSCP:
    def test_uses_subdivision(self):
        task = make_task()
        trace = Trace()
        result = simulate_run(
            task, AdaptiveSCPPolicy(), ScriptedFaults([]), recorder=trace
        )
        assert result.sub_checkpoints > 0
        assert result.completed

    def test_scp_commits_partial_interval_on_fault(self):
        # Same fault, same parameters: A_D_S loses less work than A_D
        # because it restarts from the last clean store.
        task = make_task()
        fault = [3000.0]
        ads = simulate_run(task, AdaptiveSCPPolicy(), ScriptedFaults(fault))
        ad = simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults(fault))
        assert ads.completed and ad.completed
        assert ads.cycles_executed < ad.cycles_executed

    def test_replans_interval_after_fault(self):
        task = make_task()
        policy = AdaptiveSCPPolicy()
        trace = Trace()
        simulate_run(task, policy, ScriptedFaults([1000.0]), recorder=trace)
        # After the fault the run drops to f1: stores take longer (2
        # cycles at f1 vs 1 time unit at f2) and the plan is rebuilt —
        # visible as a new CSCP cadence in the trace.
        cscp_times = [c.time for c in trace.checkpoints]
        assert len(cscp_times) > 2
        gaps = [b - a for a, b in zip(cscp_times, cscp_times[1:])]
        assert max(gaps) > min(gaps) * 1.05  # cadence changed mid-run

    def test_faulty_run_costs_more_energy(self):
        task = make_task()
        clean = simulate_run(task, AdaptiveSCPPolicy(), ScriptedFaults([]))
        faulty = simulate_run(
            task, AdaptiveSCPPolicy(), ScriptedFaults([2000.0, 4000.0])
        )
        assert faulty.cycles_executed > clean.cycles_executed


class TestAdaptiveCCP:
    def test_early_detection_beats_cscp_detection(self):
        # Same single fault: A_D_C detects at the next CCP, so it wastes
        # less wall-clock than A_D, which waits for the interval end.
        task = make_task(costs=CostModel.ccp_favourable())
        fault = [3000.0]
        adc = simulate_run(task, AdaptiveCCPPolicy(), ScriptedFaults(fault))
        ad = simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults(fault))
        assert adc.completed and ad.completed
        assert adc.detected_faults == ad.detected_faults == 1

    def test_completes_with_many_faults(self):
        task = make_task(costs=CostModel.ccp_favourable())
        faults = [float(t) for t in range(500, 5000, 500)]
        result = simulate_run(task, AdaptiveCCPPolicy(), ScriptedFaults(faults))
        assert result.completed
        assert result.detected_faults >= 5


class TestMultiLevelLadder:
    """Ladders finer than the paper's two speeds: the adaptive rule
    picks the slowest level whose ``t_est`` meets the deadline."""

    @staticmethod
    def tight_task():
        # U = 0.92 at f1 is infeasible: the paper ladder must run at f2.
        return make_task(cycles=9_200.0, fault_rate=1e-4, fault_budget=1)

    def test_four_levels_save_timely_energy(self):
        four = AdaptiveConfig(
            ladder=SpeedLadder.from_frequencies(
                tuple(1.0 + i / 3 for i in range(4))
            )
        )
        task = self.tight_task()
        paper = estimate(task, AdaptiveSCPPolicy, reps=120, seed=23)
        fine = estimate(
            task, partial(AdaptiveSCPPolicy, four), reps=120, seed=23
        )
        assert 1.0 - fine.e / paper.e > 0.10
        assert fine.p >= 0.9

    def test_drops_a_level_after_a_fault(self):
        three = AdaptiveConfig(
            ladder=SpeedLadder.from_frequencies((1.0, 1.5, 2.0))
        )
        trace = Trace()
        result = simulate_run(
            self.tight_task(),
            AdaptiveSCPPolicy(three),
            ScriptedFaults([500.0]),
            recorder=trace,
        )
        assert [s.frequency for s in trace.speeds] == [1.5, 1.0]
        assert trace.speeds[1].time > 500.0
        assert result.detected_faults == 1
        assert result.completed and result.timely
