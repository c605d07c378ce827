"""Execution backends: where Monte-Carlo rep blocks actually run.

The statistics layer (:mod:`repro.sim.metrics`) makes a cell's estimate
a fold of O(1) per-block accumulators, merged in block order.  This
module is the other half of that seam: an :class:`ExecutionBackend` is
anything that can evaluate a batch of :class:`BlockTask`\\ s — one
fixed-size rep block of one cell each — and return their accumulators.
:class:`~repro.sim.parallel.BatchRunner` plans the blocks, hands them
to a backend, and merges the results; it never cares *where* a block
ran.

Three backends ship today:

* :class:`SerialBackend` — in-process loop; the reference semantics and
  the fallback everywhere.
* :class:`ProcessBackend` — a lazily created, reused
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Jobs whose payload
  cannot be pickled run in-process; a broken pool is discarded and its
  blocks recomputed locally, so the backend never fails where the
  serial path would have succeeded.
* :class:`DistributedBackend` — a socket coordinator
  (:mod:`repro.sim.distributed`) whose workers run on loopback or on
  other hosts.  It honours exactly the contract the process pool
  honours (see its docstring); nothing upstream changes.

Backends take objects and counts, not option names:
:meth:`~repro.experiments.config.ExecutionSettings.make_runner` is the
one place that turns execution options into a backend.

Determinism does not depend on the backend: block tasks are keyed by
absolute block index, every job re-derives its random streams from that
key, and the caller merges results in block order whatever order they
completed in.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import weakref
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.choices import BACKEND_NAMES, KERNEL_NAMES
from repro.core.analysis import StaticSchedule, static_outcome, static_schedule
from repro.errors import ParameterError, SimulationError, require_count
from repro.sim.energy import EnergyModel
from repro.sim.executor import SimulationLimits, default_energy_model
from repro.sim.faults import FaultProcess
from repro.sim.montecarlo import (
    CellAccumulator,
    CellExpectation,
    PolicyFactory,
    accumulate_range,
)
from repro.sim.state import ExecutionState
from repro.sim.task import TaskSpec

__all__ = [
    "CellJob",
    "AnalyticCellJob",
    "BlockTask",
    "DispatchStats",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "DistributedBackend",
    "BACKEND_NAMES",
    "execute_block",
    "execute_batch",
    "dispatch_kind",
    "plan_blocks",
    "default_workers",
]

#: Target wall-clock per dispatched batch for latency-adaptive
#: batching: long enough to amortise per-message overhead on cheap
#: (analytic) blocks, short enough that a worker claim never holds
#: more than a fraction of a second of work from the other workers.
DEFAULT_DISPATCH_TARGET = 0.25

#: Upper bound on adaptively grown batch sizes.
MAX_DISPATCH_BATCH = 64


def default_workers() -> int:
    """The machine's CPU count (the natural ``workers`` choice)."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellJob:
    """One event-executor Monte-Carlo cell, described enough to ship.

    Everything a worker process needs to run a block of the cell: the
    payload must be picklable (dataclass specs and ``functools.partial``
    of module-level policies are; closures are not — those fall back to
    in-process execution).
    """

    task: TaskSpec
    policy_factory: PolicyFactory
    reps: int
    seed: int = 0
    faults: Optional[FaultProcess] = None
    energy_model: Optional[EnergyModel] = None
    faults_during_overhead: bool = False
    limits: SimulationLimits = field(default_factory=SimulationLimits)
    kernel: str = "exact"

    def __post_init__(self) -> None:
        require_count("reps", self.reps, 1)
        require_count("seed", self.seed, 0)
        if self.kernel not in KERNEL_NAMES:
            raise ParameterError(
                f"kernel must be 'exact' or 'fast', got {self.kernel!r}"
            )

    def run_block(self, block: int, start: int, stop: int) -> CellAccumulator:
        """Run reps ``[start, stop)`` of this cell into an accumulator.

        In exact mode rep ``i`` draws from ``SeedSequence(seed,
        spawn_key=(i,))`` whatever the block bounds, so ``block`` is
        unused here — the executor path is deterministic *per rep*.
        Runs flow through the worker's reusable
        :class:`~repro.sim.montecarlo.RunSlab` (bit-identical to
        per-rep accumulation, see :func:`~repro.sim.montecarlo.
        accumulate_range`).  In fast mode the block's draws are a pure
        function of ``(seed, start)``, so results are deterministic
        *per block* for a fixed chunk size — any backend and worker
        count agree within fast mode.
        """
        return accumulate_range(
            self.task,
            self.policy_factory,
            start=start,
            stop=stop,
            seed=self.seed,
            faults=self.faults,
            energy_model=self.energy_model,
            faults_during_overhead=self.faults_during_overhead,
            limits=self.limits,
            kernel=self.kernel,
        )


def _cell_schedule(task: TaskSpec, frequency: float, interval: float):
    """The layout of ``task`` at one speed, in time units at that speed."""
    costs = task.costs
    return static_schedule(
        task.cycles / frequency,
        interval,
        checkpoint_cost=costs.checkpoint_cycles / frequency,
        rollback_cost=costs.rollback_cycles / frequency,
        rate=task.fault_rate,
    )


@lru_cache(maxsize=1024)
def _cell_outcome(task: TaskSpec, frequency: float, interval: float):
    """The closed-form pass of one static cell, once per process."""
    schedule = _cell_schedule(task, frequency, interval)
    return static_outcome(schedule, task.deadline)


@dataclass(frozen=True)
class AnalyticCellJob:
    """One static-policy cell computed in closed form instead of sampled.

    A static policy runs one interval layout at one speed, read here
    from the policy itself, so every field has an exact expectation
    under the executor's rules (:func:`~repro.core.analysis.
    static_outcome`; faults during overhead ignored, the executor's
    default).  Energy is ``n·V(f)²·f`` times the expected time.  Every
    block returns that expectation weighted by its rep count, so the
    estimate has zero-width intervals, ``reps`` as requested, and is
    the same for any block size or backend.  The pass is memoised per
    process, so its cost does not depend on ``reps``.  Nothing is drawn:
    ``seed`` only keeps the field set of :class:`CellJob`.
    """

    task: TaskSpec
    policy_factory: PolicyFactory
    reps: int
    seed: int = 0

    def __post_init__(self) -> None:
        from repro.core.schemes import _StaticPolicy

        require_count("reps", self.reps, 1)
        require_count("seed", self.seed, 0)
        if not isinstance(self.policy_factory(), _StaticPolicy):
            raise ParameterError(
                "an analytic cell needs a static policy (one fixed "
                f"interval at one speed), got {self.policy_factory!r}"
            )

    def _speed_and_interval(self) -> Tuple[float, float]:
        policy = self.policy_factory()
        state = ExecutionState.fresh(self.task)
        policy.start(state)
        return state.frequency, policy.plan(state).interval_time

    def schedule(self) -> StaticSchedule:
        """The interval layout the executor runs for this cell."""
        return _cell_schedule(self.task, *self._speed_and_interval())

    def run_block(self, block: int, start: int, stop: int) -> CellExpectation:
        """The cell's expectation, weighted by the ``stop - start`` reps."""
        frequency, interval = self._speed_and_interval()
        outcome = _cell_outcome(self.task, frequency, interval)
        power = default_energy_model().segment_energy(frequency, frequency)
        return CellExpectation(
            reps=stop - start,
            p_timely=outcome.p_timely,
            energy_timely=power * outcome.finish_timely,
            energy_all=power * outcome.end_time,
            finish_timely=outcome.finish_timely,
            detected_faults=outcome.detected_faults,
            checkpoints=outcome.checkpoints,
        )


@dataclass(frozen=True)
class BlockTask:
    """One fixed-size rep block of one job in a batch.

    ``block`` is the absolute block index within the job (``start ==
    block · block_size``); the merge at the coordinator happens in
    ``(job_index, block)`` order regardless of completion order.
    """

    job: object  # CellJob, AnalyticCellJob or a TasksetCellJob
    job_index: int
    block: int
    start: int
    stop: int


def execute_block(task: BlockTask) -> CellAccumulator:
    """Worker entry point (module-level so it pickles by reference).

    Returns the job's mergeable block result: a
    :class:`~repro.sim.montecarlo.CellAccumulator`, or a
    :class:`~repro.sim.montecarlo.CellExpectation` for an analytic job.
    """
    return task.job.run_block(task.block, task.start, task.stop)


def execute_batch(
    tasks: Sequence[BlockTask],
) -> Tuple[List[CellAccumulator], float]:
    """Run several block tasks in one worker round trip.

    Returns the accumulators (input order) plus the *measured compute
    seconds* for the whole batch — the latency observation that feeds
    :class:`DispatchStats`.  Batching is transport-only: each block is
    still evaluated by :func:`execute_block`, so results are bit-
    identical whatever rides together.
    """
    started = time.perf_counter()
    results = [execute_block(task) for task in tasks]
    return results, time.perf_counter() - started


def dispatch_kind(task: BlockTask) -> str:
    """The latency class of a block task (its job type).

    Analytic blocks cost microseconds once their cell's pass is
    memoised, against milliseconds for an event-executor block, so
    latency statistics are kept per job type — one EWMA for
    ``AnalyticCellJob``, one for ``CellJob`` — rather than pooled.
    """
    return type(task.job).__name__


class DispatchStats:
    """EWMA of observed per-block compute latency, per job kind.

    Turns a latency target into a batch size: cheap blocks ride many to
    a message, blocks that take the whole target go one at a time.
    Until a kind has an observation its batch size is 1 — maximum
    parallelism, and the first completions seed the estimate.  Purely a
    dispatch heuristic: it never affects block boundaries, seeding, or
    merge order, so results are bit-identical for any state of the
    statistics (``tests/test_backend_conformance.py``).
    """

    __slots__ = ("target_seconds", "alpha", "max_batch", "_ewma")

    def __init__(
        self,
        target_seconds: float = DEFAULT_DISPATCH_TARGET,
        alpha: float = 0.25,
        max_batch: int = MAX_DISPATCH_BATCH,
    ) -> None:
        if target_seconds <= 0:
            raise ParameterError(
                f"target_seconds must be > 0, got {target_seconds}"
            )
        if not 0 < alpha <= 1:
            raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self.target_seconds = float(target_seconds)
        self.alpha = float(alpha)
        self.max_batch = int(max_batch)
        self._ewma: Dict[str, float] = {}

    def observe(self, kind: str, block_seconds: float) -> None:
        """Record the measured compute time of one block of ``kind``."""
        if block_seconds < 0:
            return
        current = self._ewma.get(kind)
        if current is None:
            self._ewma[kind] = block_seconds
        else:
            self._ewma[kind] = (
                self.alpha * block_seconds + (1.0 - self.alpha) * current
            )

    def block_latency(self, kind: str) -> Optional[float]:
        """Current latency estimate for ``kind`` (None before data)."""
        return self._ewma.get(kind)

    def batch_size(self, kind: str) -> int:
        """Blocks of ``kind`` to ride one message, from the EWMA."""
        latency = self._ewma.get(kind)
        if latency is None or latency <= 0:
            return 1
        return max(1, min(int(self.target_seconds / latency), self.max_batch))

    def guided_batch_size(self, kind: str, queued: int, workers: int) -> int:
        """:meth:`batch_size`, capped at ``⌈queued / (2·workers)⌉``.

        Guided self-scheduling: messages shrink as the queue drains, so
        the last blocks spread over the workers instead of riding one
        message.  Both dispatchers (the process pool and the
        distributed coordinator) size their messages here.
        """
        guided = -(-queued // (2 * max(1, workers)))
        return max(1, min(self.batch_size(kind), guided))


def plan_blocks(jobs: Sequence[object], block_size: int) -> List[BlockTask]:
    """Every job's rep range cut into fixed-size blocks, in order."""
    if block_size < 1:
        raise ParameterError(f"block_size must be >= 1, got {block_size}")
    return [
        BlockTask(
            job=job,
            job_index=index,
            block=block,
            start=start,
            stop=min(start + block_size, job.reps),
        )
        for index, job in enumerate(jobs)
        for block, start in enumerate(range(0, job.reps, block_size))
    ]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can evaluate a batch of block tasks.

    Implementations must return one :class:`~repro.sim.montecarlo.
    CellAccumulator` per task, aligned with the input order (completion
    order is the backend's business; result order is not).  They must
    not perturb the tasks' random streams — all seeding is derived from
    the task payload itself.
    """

    name: str

    def run_tasks(
        self, tasks: Sequence[BlockTask]
    ) -> List[CellAccumulator]:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class SerialBackend:
    """In-process block execution — the reference backend."""

    name = "serial"
    workers = 1

    def run_tasks(self, tasks: Sequence[BlockTask]) -> List[CellAccumulator]:
        return [execute_block(task) for task in tasks]

    def close(self) -> None:
        """Nothing to release."""


class ProcessBackend:
    """Block execution over a lazily created, reused process pool.

    Dispatch is **latency-adaptive**: consecutive same-kind blocks are
    grouped so one pool round trip carries ``target_seconds`` of
    estimated compute — analytic blocks (cheap) ride dozens to a
    message, and so do exact blocks of a few tens of milliseconds — so
    mixed grids do not convoy behind per-future overhead.  A guided
    cap of ``⌈pending / (2·workers)⌉`` blocks per message keeps a big
    claim from leaving the other workers idle at the end of a batch
    (:meth:`_next_group`).  Submission is windowed: groups are sized
    with the *current* EWMA as earlier groups complete.  Grouping is
    transport-only — block boundaries, seeding and merge order are
    untouched, so results are bit-identical whatever the EWMA state
    (``tests/test_backend_conformance.py``).

    ``workers`` is the pool size, an int >= 1; it is the only option —
    the rest of the execution options are
    :class:`~repro.experiments.config.ExecutionSettings` fields.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        self.workers = require_count("workers", workers, 1)
        self.dispatch_stats = DispatchStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def close(self) -> None:
        """Shut down the worker pool (idempotent; pool recreates lazily)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = None

    def _next_group(
        self, tasks: Sequence[BlockTask], pending: Deque[int]
    ) -> Tuple[List[int], str]:
        """Pop the next dispatch group: consecutive blocks of one kind.

        At most the EWMA's batch size, and at most
        ``⌈len(pending) / (2·workers)⌉`` blocks (guided self-scheduling),
        so messages shrink as the batch drains and the last blocks are
        spread over the workers instead of riding one message.
        """
        head_kind = dispatch_kind(tasks[pending[0]])
        size = self.dispatch_stats.guided_batch_size(
            head_kind, len(pending), self.workers
        )
        group = [pending.popleft()]
        while pending and len(group) < size:
            if dispatch_kind(tasks[pending[0]]) != head_kind:
                break
            group.append(pending.popleft())
        return group, head_kind

    def run_tasks(self, tasks: Sequence[BlockTask]) -> List[CellAccumulator]:
        results: List[Optional[CellAccumulator]] = [None] * len(tasks)
        pooled, local = partition_shippable(tasks)
        pending: Deque[int] = deque(pooled)
        in_flight: Dict[Future, Tuple[List[int], str]] = {}
        # Enough groups in flight to keep every worker busy while the
        # EWMA converges; small enough that late groups still benefit
        # from updated batch sizes.
        window = self.workers * 2
        broken = False

        def submit_upto_window() -> None:
            nonlocal broken
            while not broken and pending and len(in_flight) < window:
                group, kind = self._next_group(tasks, pending)
                try:
                    future = self._ensure_pool().submit(
                        execute_batch, [tasks[index] for index in group]
                    )
                except BrokenExecutor:
                    # The pool died while we were still handing it work
                    # (e.g. a worker OOM-killed between batches); the
                    # unsubmitted remainder runs in-process below.
                    pending.extendleft(reversed(group))
                    self.close()
                    broken = True
                    return
                in_flight[future] = (group, kind)

        def collect(done) -> None:
            nonlocal broken
            for future in done:
                group, kind = in_flight.pop(future)
                try:
                    accumulators, elapsed = future.result()
                except BrokenExecutor:
                    # A dead worker poisons the whole executor; discard
                    # it (the next batch gets a fresh one) and recompute
                    # in-process — the work is deterministic, so the
                    # backend must not fail where the serial path would
                    # have succeeded.
                    self.close()
                    broken = True
                    for index in group:
                        results[index] = execute_block(tasks[index])
                else:
                    self.dispatch_stats.observe(kind, elapsed / len(group))
                    for index, accumulator in zip(group, accumulators):
                        results[index] = accumulator

        submit_upto_window()
        # Unshippable blocks run in-process *while* the pool works on
        # the submitted ones, so a mixed grid overlaps both phases; a
        # zero-timeout sweep after each local block keeps the window
        # topped up so the pool never idles behind the local loop.
        for index in local:
            results[index] = execute_block(tasks[index])
            if in_flight:
                done, _ = wait(in_flight, timeout=0)
                collect(done)
                submit_upto_window()
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            collect(done)
            submit_upto_window()
        for index in pending:  # pool broke: finish the tail in-process
            results[index] = execute_block(tasks[index])
        return results  # type: ignore[return-value] - every slot filled

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The lazily-created, reused worker pool.

        Reuse amortises worker startup across batches (``validate``
        runs one batch per table); a ``weakref.finalize`` shuts the
        pool down when the backend is garbage-collected, so callers who
        never bother with :meth:`close` leak nothing.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._finalizer = weakref.finalize(
                self, ProcessPoolExecutor.shutdown, self._pool, wait=True
            )
        return self._pool


class DistributedBackend:
    """Block execution over the socket transport in
    :mod:`repro.sim.distributed`.

    The off-host contract — what the transport honours and everything
    it may rely on — is:

    * **Payload.**  Tasks pickle: jobs are frozen dataclasses of specs
      and ``functools.partial`` factories over module-level classes.
      Jobs that do *not* pickle (closures) run in-process instead.
    * **Results.**  One accumulator per task, aligned with input order;
      each is O(1) in ``stop - start`` (streaming moments and integer
      counters — never raw observations), so result transport is
      constant-size per block.
    * **Determinism.**  All randomness is re-derived from the task
      payload (cell seed + absolute rep/block index).  A retried,
      re-routed or duplicated block computes the identical accumulator,
      so at-least-once delivery plus idempotent collection is enough.
    * **Merging** happens at the coordinator, in block order — workers
      never need to see each other.
    * **Availability.**  Dead workers have their in-flight tasks
      requeued (bounded retries); with no workers left the remainder is
      recomputed in-process — the backend never fails where
      :class:`SerialBackend` would have succeeded.

    Parameters
    ----------
    url:
        Bind address for the coordinator, ``tcp://host:port`` (default
        loopback with an OS-assigned port).  Remote workers join with
        ``repro worker tcp://<coordinator-host>:<port>``.
    cluster:
        A :class:`~repro.sim.distributed.LocalCluster` whose loopback
        worker subprocesses start with the coordinator — the tests/CLI
        path.  ``None`` means workers are started externally against
        :attr:`coordinator_url`.
    batch_size / connect_timeout / tls / straggler_factor:
        The :class:`~repro.sim.distributed.Coordinator`'s pre-observation
        claim size, wait-for-workers timeout, :class:`~repro.sim.
        distributed.TLSConfig` and straggler multiplier (``0`` disables
        speculation); ``None`` keeps the coordinator default.
        :meth:`~repro.experiments.config.ExecutionSettings.make_runner`
        is what builds this backend from validated settings.

    The coordinator and any cluster start lazily on first
    :meth:`run_tasks`; :meth:`close` tears both down and is idempotent
    (a closed backend reopens fresh on the next batch).
    """

    name = "distributed"

    def __init__(
        self,
        url: Optional[str] = None,
        *,
        cluster: Optional[object] = None,
        batch_size: Optional[int] = None,
        connect_timeout: Optional[float] = None,
        tls: Optional[object] = None,
        straggler_factor: Optional[float] = None,
    ) -> None:
        self.url = url
        self.cluster = cluster
        self.batch_size = batch_size
        self.connect_timeout = connect_timeout
        #: :class:`~repro.sim.distributed.TLSConfig` (or None): the
        #: coordinator serves TLS.
        self.tls = tls
        #: None = coordinator default; 0 disables speculation (the
        #: same convention ``--straggler-factor 0`` uses on the CLI).
        self.straggler_factor = straggler_factor
        self._coordinator = None

    @property
    def coordinator_url(self) -> Optional[str]:
        """Where workers should connect (None until the first batch)."""
        if self._coordinator is None:
            return None
        return self._coordinator.url

    def run_tasks(self, tasks: Sequence[BlockTask]) -> List[CellAccumulator]:
        tasks = list(tasks)
        if not tasks:
            return []  # nothing to ship: no transport needed either
        return self._ensure_coordinator().run_tasks(tasks)

    def close(self) -> None:
        """Stop the cluster workers and the coordinator (idempotent)."""
        if self.cluster is not None:
            self.cluster.close()
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def _ensure_coordinator(self):
        if self._coordinator is None:
            from repro.sim.distributed import Coordinator

            kwargs = {}
            if self.batch_size is not None:
                kwargs["batch_size"] = self.batch_size
            if self.connect_timeout is not None:
                kwargs["wait_timeout"] = self.connect_timeout
            if self.tls is not None:
                kwargs["tls"] = self.tls
            if self.straggler_factor is not None:
                kwargs["straggler_factor"] = (
                    None if self.straggler_factor == 0
                    else self.straggler_factor
                )
            self._coordinator = Coordinator(
                self.url or "tcp://127.0.0.1:0", **kwargs
            )
            if self.cluster is not None:
                self.cluster.start(self._coordinator.url)
                connected = self._coordinator.wait_for_workers(
                    self.cluster.size
                )
                if connected == 0 and self.cluster.size > 0:
                    # An explicitly requested cluster where *nothing*
                    # connected is a broken deployment (bad worker
                    # entry point, wrong secret, rejected TLS), not a
                    # transient fault: failing loudly beats silently
                    # computing the whole grid in-process.  Workers
                    # dying later still fall back gracefully.
                    timeout = self._coordinator.wait_timeout
                    self.close()
                    raise SimulationError(
                        f"none of the {self.cluster.size} cluster workers "
                        f"connected within {timeout}s"
                    )
                if connected < self.cluster.size:
                    print(
                        f"repro: warning: only {connected} of "
                        f"{self.cluster.size} cluster workers connected",
                        file=sys.stderr,
                    )
            elif self.url is not None:
                # An explicit URL means external workers are expected;
                # give the first one a moment to join so small batches
                # don't fall back in-process before anyone arrives.
                self._coordinator.wait_for_workers(1)
        return self._coordinator


def _picklable(job: object) -> bool:
    """Whether ``job`` can be shipped to a worker process."""
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


def partition_shippable(
    tasks: Sequence[BlockTask],
) -> Tuple[List[int], List[int]]:
    """Split task indices into (shippable, in-process-only).

    The picklability probe is memoised per ``job_index`` — every block
    of a job shares one payload — and is the single fallback-partition
    policy for every off-process backend (the process pool and the
    distributed coordinator both use it), so the "closures run
    in-process" rule cannot drift between them.
    """
    shippable: Dict[int, bool] = {}
    remote: List[int] = []
    local: List[int] = []
    for index, task in enumerate(tasks):
        ok = shippable.get(task.job_index)
        if ok is None:
            ok = _picklable(task.job)
            shippable[task.job_index] = ok
        (remote if ok else local).append(index)
    return remote, local
