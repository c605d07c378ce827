"""Backend-conformance suite: one contract, every backend.

The :class:`~repro.sim.backends.ExecutionBackend` contract —
input-order results, block-size-fixed bit-identical estimates whatever
the worker topology, in-process fallback for unshippable jobs, ``[]``
for empty input, idempotent ``close()`` — is exercised here against
*every* shipped backend: :class:`SerialBackend` (the reference),
:class:`ProcessBackend` over a 2-process pool, and
:class:`DistributedBackend` over a real 2-worker loopback
:class:`~repro.sim.distributed.LocalCluster`.  A new backend earns its
place by passing this module unchanged.

The shared grid mixes exact and fast-kernel :class:`CellJob`\\ s: every
block draws its own realisations, so a misaligned result or an
out-of-order merge changes the answer.  The dispatch tests add
closed-form :class:`AnalyticCellJob` cells as a second job kind, which
is what latency statistics and claim grouping are keyed on.  The
per-backend fixtures are module-scoped, so the distributed backend also
proves that one coordinator/cluster survives many consecutive batches
(the ``validate`` usage pattern).
"""

from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import KFaultTolerantPolicy, PoissonArrivalPolicy
from repro.sim.backends import (
    AnalyticCellJob,
    CellJob,
    DistributedBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    plan_blocks,
)
from repro.sim.distributed import LocalCluster
from repro.sim.parallel import BatchRunner
from repro.sim.task import TaskSpec

BACKEND_NAMES = ["serial", "process", "distributed"]
CHUNK = 16


def _task() -> TaskSpec:
    return TaskSpec(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=CostModel.scp_favourable(),
    )


def _mixed_jobs():
    """A small mixed (exact + fast kernel) sampled grid, fresh per call."""
    task = _task()
    return [
        CellJob(
            task=task,
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=90,
            seed=4,
            kernel="fast",
        ),
        CellJob(
            task=task,
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=50,
            seed=4,
        ),
        CellJob(
            task=task,
            policy_factory=partial(KFaultTolerantPolicy, 1.0),
            reps=70,
            seed=11,
            kernel="fast",
        ),
        CellJob(
            task=task,
            policy_factory=partial(KFaultTolerantPolicy, 1.0),
            reps=40,
            seed=7,
        ),
    ]


def _two_kind_jobs():
    """The sampled grid with analytic cells between: two dispatch kinds."""
    task = _task()
    sampled = _mixed_jobs()
    return [
        AnalyticCellJob(
            task=task,
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=90,
            seed=4,
        ),
        *sampled[:2],
        AnalyticCellJob(
            task=task,
            policy_factory=partial(KFaultTolerantPolicy, 1.0),
            reps=70,
            seed=11,
        ),
        *sampled[2:],
    ]


def _make_backend(name: str) -> ExecutionBackend:
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(2)
    return DistributedBackend(cluster=LocalCluster(2))


@pytest.fixture(scope="module", params=BACKEND_NAMES)
def backend(request):
    """One long-lived backend per flavour, shared across the module.

    Sharing is part of the test: every backend must serve several
    independent batches from one instance (the pool is reused, the
    distributed coordinator and its workers persist across batches).
    """
    instance = _make_backend(request.param)
    yield instance
    instance.close()


@pytest.fixture(scope="module")
def reference_task_results():
    """Per-task accumulators from the serial reference, in input order."""
    tasks = plan_blocks(_mixed_jobs(), CHUNK)
    return [repr(acc.finalize()) for acc in SerialBackend().run_tasks(tasks)]


@pytest.fixture(scope="module")
def reference_estimates():
    """Whole-grid estimates from the serial runner at the shared chunk."""
    return BatchRunner(chunk_size=CHUNK).run_cells(_mixed_jobs())


@pytest.fixture(scope="module")
def two_kind_reference():
    """The serial estimates of the two-kind dispatch grid."""
    return BatchRunner(chunk_size=CHUNK).run_cells(_two_kind_jobs())


class TestSharedContract:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert isinstance(backend.name, str) and backend.name

    def test_results_align_with_input_order(
        self, backend, reference_task_results
    ):
        """One accumulator per task, position i answering task i.

        Completion order is scrambled by real pools and sockets; the
        per-index comparison against the serial reference proves the
        backend re-aligned them.
        """
        tasks = plan_blocks(_mixed_jobs(), CHUNK)
        results = backend.run_tasks(tasks)
        assert len(results) == len(tasks)
        for index, accumulator in enumerate(results):
            assert accumulator.reps == tasks[index].stop - tasks[index].start
            assert repr(accumulator.finalize()) == reference_task_results[index]

    def test_estimates_bit_identical_across_backends(
        self, backend, reference_estimates
    ):
        """Fixed block size ⇒ the merged grid matches serial exactly.

        Serial runs one worker, the pool two processes, the cluster two
        socket workers — three different topologies, byte-equal
        estimates.
        """
        runner = BatchRunner(backend=backend, chunk_size=CHUNK)
        estimates = runner.run_cells(_mixed_jobs())
        assert all(
            ours.same_values(ref)
            for ours, ref in zip(estimates, reference_estimates)
        )

    def test_no_task_lost_or_double_merged(self, backend):
        """Merged rep counts are exact — at-least-once delivery never
        inflates or starves a cell."""
        jobs = _mixed_jobs()
        runner = BatchRunner(backend=backend, chunk_size=CHUNK)
        estimates = runner.run_cells(jobs)
        assert [cell.reps for cell in estimates] == [job.reps for job in jobs]

    def test_empty_task_list_returns_empty(self, backend):
        assert backend.run_tasks([]) == []

    def test_unpicklable_job_falls_back_in_process(self, backend):
        """A closure factory cannot ship; the backend must still answer
        (in-process) and agree with the serial reference."""
        job = CellJob(
            task=_task(),
            policy_factory=lambda: PoissonArrivalPolicy(1.0),  # not picklable
            reps=30,
            seed=3,
        )
        reference = BatchRunner(chunk_size=CHUNK).run_cells([job])[0]
        runner = BatchRunner(backend=backend, chunk_size=CHUNK)
        estimate = runner.run_cells([job])[0]
        assert estimate.same_values(reference)


class TestLifecycle:
    """close() semantics need fresh instances (the shared fixture must
    stay open for the other tests)."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_close_is_idempotent(self, name):
        instance = _make_backend(name)
        instance.close()
        instance.close()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_empty_input_needs_no_resources(self, name):
        """run_tasks([]) must not spin up pools, clusters or sockets."""
        instance = _make_backend(name)
        try:
            assert instance.run_tasks([]) == []
            if isinstance(instance, DistributedBackend):
                assert instance.coordinator_url is None
            if isinstance(instance, ProcessBackend):
                assert instance._pool is None
        finally:
            instance.close()


class TestAdaptiveDispatch:
    """Latency-adaptive batching is dispatch-only.

    Whatever the EWMA state and whatever the coordinator's claim size,
    the merged estimates must be bit-identical to the serial reference —
    batching changes how many blocks ride one message, never block
    boundaries or merge order.
    """

    def test_process_warm_ewma_still_matches(self, two_kind_reference):
        """A second grid through the same backend runs with converged
        latency statistics (bigger groups) — results cannot move."""
        backend = ProcessBackend(2)
        try:
            runner = BatchRunner(backend=backend, chunk_size=CHUNK)
            first = runner.run_cells(_two_kind_jobs())
            stats = backend.dispatch_stats
            assert stats.block_latency("AnalyticCellJob") is not None
            assert stats.block_latency("CellJob") is not None
            second = runner.run_cells(_two_kind_jobs())
        finally:
            backend.close()
        for cold, warm, ref in zip(first, second, two_kind_reference):
            assert cold.same_values(ref)
            assert warm.same_values(ref)

    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_coordinator_claim_size_is_result_free(
        self, batch_size, two_kind_reference
    ):
        backend = DistributedBackend(
            cluster=LocalCluster(2), batch_size=batch_size
        )
        try:
            estimates = BatchRunner(backend=backend, chunk_size=CHUNK).run_cells(
                _two_kind_jobs()
            )
        finally:
            backend.close()
        assert all(
            ours.same_values(ref)
            for ours, ref in zip(estimates, two_kind_reference)
        )

    def test_grouping_never_mixes_kinds(self):
        """A dispatch group holds one job kind only, however large the
        EWMA would let it grow."""
        from collections import deque

        from repro.sim.backends import DispatchStats, dispatch_kind, plan_blocks

        backend = ProcessBackend(2)
        # Pretend every block is very cheap: batch size maxes out.
        backend.dispatch_stats.observe("AnalyticCellJob", 1e-6)
        backend.dispatch_stats.observe("CellJob", 1e-6)
        tasks = plan_blocks(_two_kind_jobs(), CHUNK)
        assert {dispatch_kind(task) for task in tasks} == {
            "AnalyticCellJob",
            "CellJob",
        }
        pending = deque(range(len(tasks)))
        while pending:
            group, kind = backend._next_group(tasks, pending)
            assert group  # progress
            assert {dispatch_kind(tasks[i]) for i in group} == {kind}
        backend.close()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_guided_cap_bounds_every_message(self, workers):
        """With an EWMA primed to pack 64 blocks a message, no group
        exceeds ⌈pending / (2·workers)⌉ blocks, and the groups still pop
        every block exactly once, in order."""
        from collections import deque

        from repro.sim.backends import plan_blocks

        backend = ProcessBackend(workers)
        backend.dispatch_stats.observe("CellJob", 1e-6)
        assert backend.dispatch_stats.batch_size("CellJob") == 64
        tasks = plan_blocks(_mixed_jobs(), 2)  # 125 one-kind blocks
        pending = deque(range(len(tasks)))
        popped, sizes = [], []
        while pending:
            cap = -(-len(pending) // (2 * workers))
            group, _kind = backend._next_group(tasks, pending)
            assert 1 <= len(group) <= cap
            popped.extend(group)
            sizes.append(len(group))
        backend.close()
        assert popped == list(range(len(tasks)))
        assert sizes[0] == -(-len(tasks) // (2 * workers))
        assert sizes == sorted(sizes, reverse=True)


    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_coordinator_claims_respect_the_guided_cap(self, workers):
        """The distributed coordinator's claims, with an EWMA primed to
        pack 64 blocks, never exceed ⌈queued / (2·connected workers)⌉
        and still hand out every block once, in order."""
        from collections import deque

        from repro.sim.backends import plan_blocks
        from repro.sim.distributed import Coordinator, _Link

        coordinator = Coordinator()
        try:
            coordinator.dispatch_stats.observe("CellJob", 1e-6)
            assert coordinator.dispatch_stats.batch_size("CellJob") == 64
            tasks = plan_blocks(_mixed_jobs(), 2)  # 125 one-kind blocks
            links = [_Link(sock=None, pid=0, wid=wid) for wid in range(workers)]
            with coordinator._cond:
                coordinator._links = {link.wid: link for link in links}
                coordinator._tasks = tasks
                coordinator._queue = deque(range(len(tasks)))
                coordinator._active = True
            claimed, sizes = [], []
            while coordinator._queue:
                cap = -(-len(coordinator._queue) // (2 * workers))
                _epoch, batch = coordinator._claim(links[len(sizes) % workers])
                assert 1 <= len(batch) <= cap
                claimed.extend(index for index, _task in batch)
                sizes.append(len(batch))
            assert claimed == list(range(len(tasks)))
            assert sizes[0] == -(-len(tasks) // (2 * workers))
        finally:
            with coordinator._cond:
                coordinator._active = False
                coordinator._links = {}
            coordinator.close()


class TestDispatchStats:
    def test_batch_size_tracks_latency(self):
        from repro.sim.backends import DispatchStats

        stats = DispatchStats(target_seconds=0.1, max_batch=16)
        assert stats.batch_size("x") == 1  # no data yet
        stats.observe("x", 0.01)
        assert stats.batch_size("x") == 10
        stats.observe("y", 10.0)
        assert stats.batch_size("y") == 1  # expensive blocks go alone
        stats.observe("z", 1e-9)
        assert stats.batch_size("z") == 16  # clamped at max_batch

    def test_ewma_converges(self):
        from repro.sim.backends import DispatchStats

        stats = DispatchStats(alpha=0.5)
        for _ in range(20):
            stats.observe("k", 0.02)
        assert stats.block_latency("k") == pytest.approx(0.02)

    def test_rejects_bad_parameters(self):
        from repro.errors import ParameterError
        from repro.sim.backends import DispatchStats

        with pytest.raises(ParameterError):
            DispatchStats(target_seconds=0.0)
        with pytest.raises(ParameterError):
            DispatchStats(alpha=0.0)
        with pytest.raises(ParameterError):
            DispatchStats(max_batch=0)
