"""The execution-backend seam: protocol, planning, and conformance.

Backends only decide *where* a block runs; determinism lives in the
block-keyed seeding and the block-ordered merge above them.  These
tests pin the seam itself: planning covers rep ranges exactly, every
shipped backend satisfies the protocol and agrees with the serial
reference, custom backends plug into :class:`BatchRunner`, and the
distributed stub documents (and enforces) its unimplemented contract.
"""

from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import PoissonArrivalPolicy
from repro.errors import ParameterError
from repro.sim.backends import (
    AnalyticCellJob,
    BlockTask,
    CellJob,
    DistributedBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    execute_block,
    plan_blocks,
)
from repro.sim.parallel import BatchRunner
from repro.sim.task import TaskSpec


@pytest.fixture
def task():
    return TaskSpec(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=CostModel.scp_favourable(),
    )


@pytest.fixture
def jobs(task):
    # Sampled jobs only: every block draws its own realisations, so a
    # misaligned or recomputed block would show in the results.
    fast = CellJob(
        task=task,
        policy_factory=partial(PoissonArrivalPolicy, 1.0),
        reps=90,
        seed=4,
        kernel="fast",
    )
    executor = CellJob(
        task=task,
        policy_factory=partial(PoissonArrivalPolicy, 1.0),
        reps=50,
        seed=4,
    )
    return [fast, executor]


class TestPlanning:
    def test_blocks_cover_every_job(self, jobs):
        tasks = plan_blocks(jobs, 40)
        by_job = {}
        for t in tasks:
            by_job.setdefault(t.job_index, []).append(t)
        assert [(t.block, t.start, t.stop) for t in by_job[0]] == [
            (0, 0, 40), (1, 40, 80), (2, 80, 90)
        ]
        assert [(t.block, t.start, t.stop) for t in by_job[1]] == [
            (0, 0, 40), (1, 40, 50)
        ]

    def test_block_size_validated(self, jobs):
        with pytest.raises(ParameterError):
            plan_blocks(jobs, 0)

    def test_tasks_are_in_job_then_block_order(self, jobs):
        tasks = plan_blocks(jobs, 25)
        order = [(t.job_index, t.block) for t in tasks]
        assert order == sorted(order)


class TestJobCounts:
    @pytest.mark.parametrize("job_type", [CellJob, AnalyticCellJob])
    @pytest.mark.parametrize(
        "reps, seed", [(2.5, 0), (True, 0), (8, 2.5), (8, True), (8, -1)]
    )
    def test_non_integer_reps_and_seed_rejected(self, task, job_type, reps, seed):
        with pytest.raises(ParameterError, match="reps|seed"):
            job_type(
                task=task,
                policy_factory=partial(PoissonArrivalPolicy, 1.0),
                reps=reps,
                seed=seed,
            )


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, partial(ProcessBackend, 2), DistributedBackend],
        ids=["serial", "process", "distributed"],
    )
    def test_satisfies_protocol(self, backend_factory):
        backend = backend_factory()
        assert isinstance(backend, ExecutionBackend)
        assert isinstance(backend.name, str)
        backend.close()
        backend.close()  # idempotent

    def test_process_backend_matches_serial(self, jobs):
        tasks = plan_blocks(jobs, 30)
        serial = SerialBackend().run_tasks(tasks)
        backend = ProcessBackend(2)
        try:
            pooled = backend.run_tasks(tasks)
        finally:
            backend.close()
        assert len(pooled) == len(serial) == len(tasks)
        for a, b in zip(serial, pooled):
            assert repr(a.finalize()) == repr(b.finalize())

    def test_execute_block_is_the_single_entry_point(self, jobs):
        task = plan_blocks(jobs, 90)[0]
        acc = execute_block(task)
        assert acc.reps == task.stop - task.start

    def test_process_backend_validates_workers(self):
        with pytest.raises(ParameterError):
            ProcessBackend(0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_process_backend_rejects_non_integer_workers(self, bad):
        with pytest.raises(ParameterError, match="integer"):
            ProcessBackend(bad)


class TestDistributedSurface:
    """The off-host contract's local half (the socket transport itself
    is covered by tests/test_distributed*.py and the conformance
    suite)."""

    def test_url_recorded_but_nothing_started(self):
        backend = DistributedBackend(url="tcp://127.0.0.1:0")
        assert backend.url == "tcp://127.0.0.1:0"
        assert backend.coordinator_url is None  # lazy until a batch
        backend.close()

    def test_empty_task_list_returns_empty(self):
        # Regression: the stub used to raise even for zero tasks.
        backend = DistributedBackend()
        assert backend.run_tasks([]) == []
        assert backend.coordinator_url is None
        backend.close()

    def test_tasks_it_receives_are_picklable(self, jobs):
        # The documented contract: payloads must pickle.
        import pickle

        for block_task in plan_blocks(jobs, 30):
            restored = pickle.loads(pickle.dumps(block_task))
            assert isinstance(restored, BlockTask)
            assert restored.stop == block_task.stop

    def test_duplicate_delivery_is_idempotent(self, jobs):
        # At-least-once transports may recompute a block; re-running
        # the same BlockTask must reproduce the identical accumulator.
        block_task = plan_blocks(jobs, 45)[0]
        first = execute_block(block_task)
        second = execute_block(block_task)
        assert repr(first.finalize()) == repr(second.finalize())


class TestCustomBackendPlugsIn:
    def test_batchrunner_accepts_explicit_backend(self, jobs):
        class CountingBackend(SerialBackend):
            name = "counting"

            def __init__(self):
                self.calls = 0

            def run_tasks(self, tasks):
                self.calls += 1
                return super().run_tasks(tasks)

        backend = CountingBackend()
        runner = BatchRunner(backend=backend, chunk_size=30)
        estimates = runner.run_cells(jobs)
        reference = BatchRunner(chunk_size=30).run_cells(jobs)
        assert backend.calls == 1
        assert all(
            a.same_values(b) for a, b in zip(estimates, reference)
        )
