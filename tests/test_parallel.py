"""Determinism and merge semantics of the parallel batch runner.

The contract under test: for a fixed seed and block size, a cell's
:class:`CellEstimate` is *identical* — field for field, bit for bit —
whatever the worker count, and identical to the plain serial harness.
(In practice the compensated moment accumulators agree across block
sizes too; that stronger property is pinned here with fixed seeds.)
Plus the reduction layer: merged accumulators equal single-pass
statistics with an O(1) payload, including the paper's ``NaN``
convention when every block comes back with zero timely runs.
"""

import math
import pickle
from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import AdaptiveSCPPolicy, PoissonArrivalPolicy
from repro.errors import ParameterError
from repro.sim.backends import ProcessBackend, plan_blocks
from repro.sim.executor import RunResult
from repro.sim.montecarlo import CellAccumulator, estimate, run_range
from repro.sim.parallel import DEFAULT_BLOCK_SIZE, BatchRunner, CellJob
from repro.sim.task import TaskSpec

COSTS = CostModel.scp_favourable()


def _runner(workers, chunk_size=None):
    """In-process for one worker, else a pool of ``workers`` processes."""
    backend = ProcessBackend(workers) if workers > 1 else None
    return BatchRunner(backend, chunk_size=chunk_size)


@pytest.fixture
def task():
    return TaskSpec(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=COSTS,
    )


def make_result(
    timely: bool,
    energy: float,
    finish: float = 100.0,
    faults: int = 0,
    checkpoints: int = 3,
    subs: int = 1,
) -> RunResult:
    return RunResult(
        completed=timely,
        timely=timely,
        finish_time=finish,
        energy=energy,
        cycles_executed=finish,
        cycles_by_frequency={1.0: finish},
        detected_faults=faults,
        injected_faults=faults,
        checkpoints=checkpoints,
        sub_checkpoints=subs,
        rollbacks=faults,
    )


class TestDeterminism:
    """Same seed ⇒ same CellEstimate, whatever the topology."""

    def test_workers_1_vs_4_identical(self, task):
        job = CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=64, seed=5)
        one = BatchRunner().run_cell(job)
        four = BatchRunner(ProcessBackend(4)).run_cell(job)
        assert one.same_values(four)

    def test_block_size_invariant_across_worker_counts(self, task):
        # The hard guarantee: for each fixed block size, every worker
        # count performs the same accumulations in the same order.
        job = CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=60, seed=8)
        for block in (60, 7, 13, 1, None):
            estimates = [_runner(w, block).run_cell(job) for w in (1, 2, 4)]
            assert all(e.same_values(estimates[0]) for e in estimates)

    def test_chunk_size_irrelevant(self, task):
        # The practical (compensated-arithmetic) guarantee: different
        # block sizes change the merge tree but not the final bits.
        job = CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=60, seed=8)
        estimates = [
            _runner(w, c).run_cell(job)
            for w, c in [(1, 60), (1, 7), (2, 13), (4, 1), (3, None)]
        ]
        assert all(e.same_values(estimates[0]) for e in estimates)

    def test_matches_plain_serial_estimate(self, task):
        serial = estimate(task, AdaptiveSCPPolicy, reps=50, seed=11)
        via_runner = estimate(
            task,
            AdaptiveSCPPolicy,
            reps=50,
            seed=11,
            runner=BatchRunner(ProcessBackend(2), chunk_size=9),
        )
        assert serial.same_values(via_runner)

    def test_different_seed_differs(self, task):
        runner = BatchRunner(ProcessBackend(2))
        a = runner.run_cell(
            CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=50, seed=1)
        )
        b = runner.run_cell(
            CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=50, seed=2)
        )
        assert a != b

    def test_grid_preserves_job_order(self, task):
        jobs = [
            CellJob(
                task=task,
                policy_factory=partial(PoissonArrivalPolicy, 1.0),
                reps=40,
                seed=s,
            )
            for s in (3, 4, 5)
        ]
        pooled = BatchRunner(ProcessBackend(3), chunk_size=11).run_cells(jobs)
        serial = [BatchRunner().run_cell(j) for j in jobs]
        assert all(p.same_values(s) for p, s in zip(pooled, serial))


class TestMergeSemantics:
    """Merged accumulators equal single-pass statistics exactly."""

    def test_merge_equals_single_pass(self):
        results = [
            make_result(True, 101.5, finish=90.25, faults=1),
            make_result(False, 407.125, finish=600.0, faults=3),
            make_result(True, 99.75, finish=88.5),
            make_result(True, 250.0625, finish=95.0, faults=2, subs=4),
            make_result(False, 333.5, finish=700.0, faults=5),
        ]
        single = CellAccumulator().add_all(results).finalize()
        for split in range(1, len(results)):
            left = CellAccumulator().add_all(results[:split])
            right = CellAccumulator().add_all(results[split:])
            assert left.merge(right).finalize() == single

    def test_merge_equals_one_pass(self, task):
        results = run_range(
            task, partial(PoissonArrivalPolicy, 1.0), start=0, stop=30, seed=21
        )
        merged = (
            CellAccumulator()
            .add_all(results[:13])
            .merge(CellAccumulator().add_all(results[13:]))
            .finalize()
        )
        assert merged == CellAccumulator().add_all(results).finalize()

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ParameterError):
            CellAccumulator().finalize()


class TestEmptyTimelyNaN:
    """Regression: all-empty chunks must yield NaN, not raise."""

    def test_all_empty_chunks_merge_to_nan(self):
        chunks = [
            CellAccumulator().add_all([make_result(False, 50.0, finish=900.0)])
            for _ in range(3)
        ]
        merged = chunks[0].merge(chunks[1]).merge(chunks[2])
        cell = merged.finalize()
        assert cell.p == 0.0
        assert math.isnan(cell.e)
        assert math.isnan(cell.energy_timely.value)
        assert math.isnan(cell.mean_finish_time_timely)
        assert cell.energy_timely.count == 0

    def test_never_timely_cell_through_pool(self):
        # U = 1 at f = 1: checkpoint overhead alone blows the deadline,
        # so no run is ever timely and E must come back NaN.
        doomed = TaskSpec(
            cycles=10_000.0,
            deadline=10_000.0,
            fault_budget=1,
            fault_rate=1e-4,
            costs=COSTS,
        )
        cell = BatchRunner(ProcessBackend(2), chunk_size=10).run_cell(
            CellJob(
                task=doomed,
                policy_factory=partial(PoissonArrivalPolicy, 1.0),
                reps=30,
                seed=6,
            )
        )
        assert cell.p == 0.0
        assert math.isnan(cell.e)


class TestFallbacks:
    def test_unpicklable_factory_falls_back_to_serial(self, task):
        factory = lambda: PoissonArrivalPolicy(1.0)  # noqa: E731 - closure on purpose
        job = CellJob(task=task, policy_factory=factory, reps=40, seed=7)
        pooled = BatchRunner(ProcessBackend(4)).run_cell(job)
        serial = BatchRunner().run_cell(job)
        assert pooled.same_values(serial)

    def test_mixed_grid_keeps_order(self, task):
        picklable = CellJob(
            task=task, policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=30, seed=1,
        )
        closure = CellJob(
            task=task, policy_factory=lambda: PoissonArrivalPolicy(1.0),
            reps=30, seed=1,
        )
        pooled = BatchRunner(ProcessBackend(2)).run_cells([picklable, closure])
        assert pooled[0].same_values(pooled[1])

    def test_empty_grid(self):
        assert BatchRunner(ProcessBackend(2)).run_cells([]) == []

    def test_pool_is_reused_across_batches_and_closeable(self, task):
        job = CellJob(
            task=task, policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=30, seed=2,
        )
        with BatchRunner(ProcessBackend(2)) as runner:
            first = runner.run_cell(job)
            pool = runner.backend._pool
            second = runner.run_cell(job)
            assert runner.backend._pool is pool  # same executor, no restart
            assert first.same_values(second)
        assert runner.backend._pool is None
        # close() is idempotent and the pool recreates lazily after it.
        runner.close()
        assert runner.run_cell(job).same_values(first)

    def test_serial_constructor(self):
        runner = BatchRunner()
        assert runner.backend.workers == 1
        assert runner.backend.name == "serial"
        assert runner.block_size == DEFAULT_BLOCK_SIZE

    def test_broken_pool_recovers_in_process(self, task):
        # Kill the workers out from under the runner: the batch must
        # still complete (in-process recompute), produce the same
        # estimate, and the poisoned executor must not be reused.
        job = CellJob(
            task=task, policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=30, seed=4,
        )
        runner = BatchRunner(ProcessBackend(2), chunk_size=10)
        expected = BatchRunner(chunk_size=10).run_cell(job)
        pool = runner.backend._ensure_pool()
        pool.submit(int, 0).result()  # spin the workers up
        for process in pool._processes.values():
            process.terminate()
        assert runner.run_cell(job).same_values(expected)
        # fresh executor after the break
        assert runner.backend._pool is not pool
        assert runner.run_cell(job).same_values(expected)


class TestValidation:
    def test_bad_chunk_size(self):
        with pytest.raises(ParameterError):
            BatchRunner(chunk_size=0)

    @pytest.mark.parametrize("bad", [100.7, 32.0, True])
    def test_non_integer_chunk_size_rejected(self, bad):
        # The block size fixes the reduction tree: 100.7 truncated to
        # 100 would run a different study from the one named.
        with pytest.raises(ParameterError, match="integer"):
            BatchRunner(chunk_size=bad)

    @pytest.mark.parametrize("bad", [4, "process"])
    def test_backend_must_be_a_backend(self, bad):
        # Worker counts and backend names are ExecutionSettings options.
        with pytest.raises(ParameterError, match="ExecutionBackend"):
            BatchRunner(bad)

    def test_bad_reps(self, task):
        with pytest.raises(ParameterError):
            CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=0)

    def test_planned_blocks_cover_range_exactly(self, task):
        job = CellJob(task=task, policy_factory=AdaptiveSCPPolicy, reps=20, seed=0)
        tasks = plan_blocks([job], 7)
        assert [(t.block, t.start, t.stop) for t in tasks] == [
            (0, 0, 7), (1, 7, 14), (2, 14, 20)
        ]
        assert all(t.job_index == 0 and t.job is job for t in tasks)


class TestPayloadSize:
    """Accumulator payloads must be O(1) in the rep count."""

    def test_shard_payload_does_not_grow_with_reps(self, task):
        factory = partial(PoissonArrivalPolicy, 1.0)
        small = CellAccumulator().add_all(
            run_range(task, factory, start=0, stop=20, seed=1)
        )
        large = CellAccumulator().add_all(
            run_range(task, factory, start=0, stop=400, seed=1)
        )
        small_bytes = len(pickle.dumps(small))
        large_bytes = len(pickle.dumps(large))
        # 20× the reps, same payload (up to integer encoding widths).
        assert large_bytes <= small_bytes + 32
