"""Analytic static cells (``fast_static``) against the event executor.

:class:`~repro.sim.backends.AnalyticCellJob` computes a static cell in
closed form and shares no code with the executor's hot loop, so
agreement on every field is strong evidence both are right.  Also under
test here: the job reads its layout from the static policy itself, and
its estimates are identical for any worker count and block size.
"""

import math
from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import (
    AdaptiveDVSPolicy,
    KFaultTolerantPolicy,
    PoissonArrivalPolicy,
)
from repro.errors import ParameterError
from repro.sim.backends import AnalyticCellJob, ProcessBackend
from repro.sim.montecarlo import estimate
from repro.sim.parallel import BatchRunner
from repro.sim.task import TaskSpec
from repro.workloads.frontier import EquidistantPolicy

COSTS = CostModel.scp_favourable()


def make_task(**overrides):
    params = dict(
        cycles=9200.0,
        deadline=10_000.0,
        fault_budget=1,
        fault_rate=1e-4,
        costs=COSTS,
    )
    params.update(overrides)
    return TaskSpec(**params)


def _runner(workers, chunk_size=None):
    """In-process for one worker, else a pool of ``workers`` processes."""
    backend = ProcessBackend(workers) if workers > 1 else None
    return BatchRunner(backend, chunk_size=chunk_size)


def analytic(task, policy, *, reps=1000):
    job = AnalyticCellJob(task=task, policy_factory=policy, reps=reps)
    return BatchRunner().run_cell(job)


def within(estimate_ci, value, widen=1.7):
    """``value`` inside a 95 % interval widened to ~99.9 %."""
    half = (estimate_ci.high - estimate_ci.low) / 2.0
    return abs(value - estimate_ci.value) <= widen * half + 1e-9


class TestSpecConstruction:
    """The job takes its interval and speed from the policy it runs."""

    def job(self, task, policy):
        return AnalyticCellJob(task=task, policy_factory=policy, reps=1)

    def test_poisson_spec_interval(self):
        schedule = self.job(make_task(), partial(PoissonArrivalPolicy, 1.0)).schedule()
        assert schedule.interval_lengths[0] == pytest.approx(
            math.sqrt(2 * 22 / 1e-4)
        )

    def test_kft_spec_interval(self):
        task = make_task(fault_budget=5)
        schedule = self.job(task, partial(KFaultTolerantPolicy, 1.0)).schedule()
        assert schedule.interval_lengths[0] == pytest.approx(math.sqrt(9200 * 22 / 5))

    def test_interval_clamped_to_work(self):
        task = make_task(fault_rate=1e-9)
        schedule = self.job(task, partial(PoissonArrivalPolicy, 1.0)).schedule()
        assert schedule.interval_lengths == [pytest.approx(9200.0)]

    def test_unknown_scheme_rejected(self):
        # Only a static policy (one fixed layout at one speed) has a
        # closed form.
        with pytest.raises(ParameterError):
            self.job(make_task(), AdaptiveDVSPolicy)

    def test_validation(self):
        with pytest.raises(ParameterError):
            AnalyticCellJob(
                task=make_task(),
                policy_factory=partial(PoissonArrivalPolicy, 1.0),
                reps=0,
            )
        # The speed comes from the policy: f = 2 halves every length.
        schedule = self.job(make_task(), partial(PoissonArrivalPolicy, 2.0)).schedule()
        assert schedule.work == pytest.approx(4600.0)
        assert schedule.checkpoint_cost == pytest.approx(11.0)


class TestAgreementWithExecutor:
    @pytest.mark.parametrize(
        "scheme,policy_cls,kw",
        [
            ("Poisson", PoissonArrivalPolicy, dict()),
            ("k-f-t", KFaultTolerantPolicy, dict(fault_budget=5)),
        ],
    )
    def test_p_and_e_match(self, scheme, policy_cls, kw):
        task = make_task(fault_rate=1.4e-3, **kw)
        slow = estimate(task, partial(policy_cls, 1.0), reps=3000, seed=71)
        fast = analytic(task, partial(policy_cls, 1.0))
        # Exact expectations against one sample: every field, including
        # energy_all and the counters of abandoned runs.
        assert slow.p_timely.low - 0.01 <= fast.p <= slow.p_timely.high + 0.01
        assert within(slow.energy_all, fast.energy_all.value)
        if slow.energy_timely.count >= 30:
            assert within(slow.energy_timely, fast.e)
            assert fast.mean_finish_time_timely == pytest.approx(
                slow.mean_finish_time_timely, rel=0.01
            )
        assert fast.mean_detected_faults == pytest.approx(
            slow.mean_detected_faults, rel=0.03
        )
        assert fast.mean_checkpoints == pytest.approx(
            slow.mean_checkpoints, rel=0.03
        )

    def test_matches_published_cell(self):
        # Table 1(b) U=0.92, λ=1e-4: published Poisson P = 0.3914.
        fast = analytic(make_task(), partial(PoissonArrivalPolicy, 1.0))
        assert fast.p == pytest.approx(0.3914, abs=0.03)
        assert fast.e == pytest.approx(38_032, rel=0.02)

    def test_fault_free_is_exact(self):
        task = make_task(fault_rate=0.0, cycles=1000.0)
        fast = analytic(task, partial(EquidistantPolicy, 1.0, 10))
        assert fast.p == 1.0
        assert fast.e == pytest.approx(4 * (1000 + 10 * 22))

    def test_frequency_two(self):
        task = make_task(fault_rate=1.4e-3, cycles=15_200.0, fault_budget=5)
        slow = estimate(task, partial(PoissonArrivalPolicy, 2.0), reps=2000, seed=75)
        fast = analytic(task, partial(PoissonArrivalPolicy, 2.0))
        assert slow.p_timely.low - 0.01 <= fast.p <= slow.p_timely.high + 0.01
        assert within(slow.energy_timely, fast.e)
        assert within(slow.energy_all, fast.energy_all.value)

    def test_nan_when_never_timely(self):
        task = make_task(cycles=10_000.0)
        fast = analytic(task, partial(PoissonArrivalPolicy, 1.0), reps=500)
        assert fast.p == 0.0
        assert math.isnan(fast.e)
        assert fast.energy_timely.count == 0
        assert fast.energy_all.count == 500

    def test_reps_validated(self):
        with pytest.raises(ParameterError):
            analytic(make_task(), partial(PoissonArrivalPolicy, 1.0), reps=0)


class TestSeededSharding:
    """Every block carries the same expectation: topology-free cells."""

    def job(self, reps=2000, **overrides):
        return AnalyticCellJob(
            task=make_task(fault_rate=1.4e-3, **overrides),
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=reps,
            seed=11,
        )

    def test_workers_1_vs_4_identical(self):
        serial = BatchRunner().run_cell(self.job())
        with BatchRunner(ProcessBackend(4)) as runner:
            pooled = runner.run_cell(self.job())
        assert serial.same_values(pooled)
        assert serial.reps == 2000

    def test_every_block_size_invariant_across_workers(self):
        reference = BatchRunner(chunk_size=2000).run_cell(self.job())
        for block in (2000, 300, 97, 1):
            for workers in (1, 4):
                with _runner(workers, block) as runner:
                    ours = runner.run_cell(self.job())
                assert ours.same_values(reference), (block, workers)

    def test_mixed_static_and_adaptive_grid(self):
        # One batch, both job kinds, any backend: the unified seam.
        from repro.core.schemes import AdaptiveSCPPolicy
        from repro.sim.parallel import CellJob

        task = make_task(fault_rate=1.4e-3, fault_budget=5)
        jobs = [
            self.job(reps=400, fault_budget=5),
            CellJob(
                task=task, policy_factory=AdaptiveSCPPolicy, reps=60, seed=2
            ),
        ]
        serial = BatchRunner().run_cells(jobs)
        with BatchRunner(ProcessBackend(2)) as runner:
            pooled = runner.run_cells(jobs)
        assert all(s.same_values(p) for s, p in zip(serial, pooled))


class TestExactCounters:
    """mean_checkpoints / mean_detected_faults as exact expectations."""

    def test_fault_free_counts_are_exact(self):
        task = make_task(fault_rate=0.0, cycles=1000.0)
        fast = analytic(task, partial(EquidistantPolicy, 1.0, 10), reps=64)
        # 10 intervals, no retries: exactly 10 closing CSCPs, 0 faults.
        assert fast.mean_checkpoints == 10.0
        assert fast.mean_detected_faults == 0.0
        assert fast.mean_sub_checkpoints == 0.0

    def test_counter_parity_with_executor(self):
        # A cell where every run is timely, so no run is abandoned:
        # E[checkpoints] = n_intervals + E[failures], E[detected] =
        # E[failures].
        task = make_task(cycles=3000.0, fault_rate=5e-4, fault_budget=5)
        slow = estimate(
            task, partial(PoissonArrivalPolicy, 1.0), reps=1500, seed=31
        )
        fast = analytic(task, partial(PoissonArrivalPolicy, 1.0))
        assert slow.p == 1.0
        assert fast.p == pytest.approx(1.0, abs=1e-12)
        assert fast.mean_detected_faults == pytest.approx(
            slow.mean_detected_faults, abs=0.2
        )
        assert fast.mean_checkpoints == pytest.approx(
            slow.mean_checkpoints, abs=0.2
        )
        # The two counters are rigidly linked, run by run.
        assert (
            fast.mean_checkpoints - fast.mean_detected_faults
        ) == pytest.approx(
            slow.mean_checkpoints - slow.mean_detected_faults, abs=1e-9
        )

    def test_retries_count_once_per_failure(self):
        # A measurable fault pressure and a deadline that does not bind:
        # checkpoints = n_intervals + detected faults.
        task = make_task(cycles=3000.0, fault_rate=2e-3, fault_budget=5)
        job = AnalyticCellJob(
            task=task, policy_factory=partial(PoissonArrivalPolicy, 1.0), reps=8
        )
        fast = BatchRunner().run_cell(job)
        assert fast.mean_detected_faults > 0.5
        assert fast.mean_checkpoints == pytest.approx(
            job.schedule().n_intervals + fast.mean_detected_faults, abs=1e-9
        )


class TestRouting:
    """``fast_static`` picks the analytic job for static columns only."""

    def test_static_columns_only(self):
        from repro.experiments.config import table_spec
        from repro.sim.backends import CellJob

        spec = table_spec("1a")
        u, lam = spec.rows[0]
        kinds = {
            scheme: type(
                spec.cell_job(u, lam, scheme, reps=8, seed=1, fast_static=True)
            )
            for scheme in spec.schemes
        }
        assert kinds == {
            "Poisson": AnalyticCellJob,
            "k-f-t": AnalyticCellJob,
            "A_D": CellJob,
            "A_D_S": CellJob,
        }

    def test_faults_during_overhead_still_conflicts(self):
        from repro.errors import ConfigurationError
        from repro.experiments.config import table_spec

        spec = table_spec("1a")
        u, lam = spec.rows[0]
        with pytest.raises(ConfigurationError):
            spec.cell_job(
                u, lam, "Poisson", reps=8, seed=1, fast_static=True,
                faults_during_overhead=True,
            )

    def test_kernel_stamp_leaves_the_job_alone(self):
        from repro.api.scheduler import job_with_kernel

        job = AnalyticCellJob(
            task=make_task(),
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=8,
        )
        assert not hasattr(job, "kernel")
        assert job_with_kernel(job, "fast") is job
