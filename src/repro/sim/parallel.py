"""Parallel Monte-Carlo batch execution with deterministic block seeding.

The paper's tables are grids of *independent* cells (task × scheme ×
fault rate), and each cell is itself ``reps`` independent runs — an
embarrassingly parallel workload that the serial harness leaves
wall-clock bound at paper scale (10,000-rep adaptive cells).  This
module cuts that work into fixed-size **rep blocks** and hands them to
an :class:`~repro.sim.backends.ExecutionBackend` — in-process, a
process pool, or (eventually) a distributed transport — without
changing the estimates.

Determinism contract
--------------------
Results are identical for any worker count because nothing about the
topology ever reaches the random streams or the reduction:

* **Seeding** — keyed by *absolute indices*, never by worker or
  completion order.  Executor cells draw rep ``i`` from
  ``SeedSequence(cell_seed, spawn_key=(i,))``; fast-kernel cells draw
  each block from a Philox stream keyed by its first rep, and analytic
  cells draw nothing.
* **Blocked reduction** — the unit of accumulation is the fixed-size
  block (``chunk_size`` reps, default :data:`DEFAULT_BLOCK_SIZE`).
  Each block streams its reps in order into O(1) moment accumulators
  (:mod:`repro.sim.metrics`); blocks merge in ascending block index
  regardless of completion order.  The same additions therefore happen
  in the same order whatever the worker count, which makes the merged
  estimate *bit-identical* to the one-worker pass — and the payload
  shipped per block is constant-size, never O(reps) of raw values.

The block size is part of the contract: it fixes the reduction tree,
so it is recorded alongside the seed when reproducibility matters.
(In practice the compensated accumulators agree across block sizes too
— ``tests/test_parallel.py`` pins both properties.)

Fallbacks
---------
``workers=1`` (the default) runs everything in-process through the same
block/merge code path.  Jobs whose policy factory cannot be pickled
(e.g. a closure) are detected up front and run in-process too, so the
runner never fails where the serial harness would have succeeded.

The grid API (:meth:`BatchRunner.run_cells`) is what the experiment
layer uses: all blocks of all cells are interleaved in one batch, so a
grid with one slow adaptive column still keeps every worker busy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ParameterError
from repro.sim.backends import (
    CellJob,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    default_workers,
    make_backend,
    plan_blocks,
)
from repro.sim.montecarlo import CellAccumulator, CellEstimate

__all__ = [
    "CellJob",
    "BatchRunner",
    "default_workers",
    "DEFAULT_BLOCK_SIZE",
]

#: Reps per block when no ``chunk_size`` is given.  A topology-free
#: constant on purpose: the old heuristic (``reps / 4·workers``) let the
#: worker count shape the reduction tree, which a moment-based merge
#: cannot tolerate.  256 reps keeps per-block dispatch negligible while
#: giving a 10,000-rep cell ~40 blocks to load-balance.
DEFAULT_BLOCK_SIZE = 256

#: Sentinel distinguishing "workers not given" from an explicit value —
#: the inference path reads the default as 1 (serial), but a named
#: backend must read it as "unspecified" (e.g. a process pool defaults
#: to one worker per CPU, not a 1-process pool).
_UNSET_WORKERS = object()


class BatchRunner:
    """Plans cell grids into rep blocks, runs them on a backend, merges.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` (default) executes in-process via
        :class:`~repro.sim.backends.SerialBackend`; ``None`` means
        :func:`default_workers`; anything else builds a
        :class:`~repro.sim.backends.ProcessBackend`.  With an explicit
        ``backend`` name it sizes the process pool (see below).
    chunk_size:
        Reps per block — the unit of both scheduling *and* accumulation
        (see the module docstring).  ``None`` means
        :data:`DEFAULT_BLOCK_SIZE`.  For a fixed value, results are
        bit-identical across worker counts and backends.
    backend:
        An explicit :class:`~repro.sim.backends.ExecutionBackend`
        instance or one of the names in :data:`~repro.sim.backends.
        BACKEND_NAMES` (``"serial"``, ``"process"``, ``"distributed"``);
        overrides the ``workers``-based inference.  ``"process"`` uses
        ``workers`` for its pool size — unspecified/``None`` = one per
        CPU (matching every higher-level entry point), an explicit
        ``1`` = a genuine single-process pool (unlike the inference
        path, where 1 means serial).  ``"distributed"`` builds a
        default :class:`~repro.sim.backends.DistributedBackend`; a
        configured one (cluster, URL, TLS, timeouts) is built by
        :meth:`~repro.experiments.config.ExecutionSettings.make_runner`
        and passed here as an instance.

    Distributed options are :class:`~repro.experiments.config.
    ExecutionSettings` fields, not runner arguments: the settings are
    the one place that validates which option suits which backend.
    """

    def __init__(
        self,
        workers: Optional[int] = _UNSET_WORKERS,  # type: ignore[assignment]
        *,
        chunk_size: Optional[int] = None,
        backend: Union[ExecutionBackend, str, None] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        self.block_size = int(chunk_size) if chunk_size else DEFAULT_BLOCK_SIZE
        if backend is not None:
            self.backend: ExecutionBackend = make_backend(
                backend,
                workers=None if workers is _UNSET_WORKERS else workers,
            )
            self.workers = getattr(self.backend, "workers", 1)
            return
        if workers is _UNSET_WORKERS:
            workers = 1  # the historical serial default
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        if self.workers == 1:
            self.backend = SerialBackend()
        else:
            self.backend = ProcessBackend(self.workers)

    # -- public API ----------------------------------------------------

    @property
    def chunk_size(self) -> int:
        """Alias for :attr:`block_size` (the CLI flag's name)."""
        return self.block_size

    @classmethod
    def serial(cls, *, chunk_size: Optional[int] = None) -> "BatchRunner":
        """The in-process runner — the serial fallback everywhere."""
        return cls(workers=1, chunk_size=chunk_size)

    def close(self) -> None:
        """Release backend resources (idempotent; pools recreate lazily)."""
        self.backend.close()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_cell(self, job) -> CellEstimate:
        """Estimate one cell (sharded when the backend is parallel)."""
        return self.run_cells([job])[0]

    def run_cells(self, jobs: Sequence) -> List[CellEstimate]:
        """Estimate a whole grid of cells, interleaving their blocks.

        ``jobs`` may mix :class:`~repro.sim.backends.CellJob` (event
        executor), :class:`~repro.sim.backends.AnalyticCellJob` (a
        static cell in closed form) and
        :class:`~repro.workloads.TasksetCellJob` (multi-task EDF
        scenario engine) — anything with ``reps``/``seed`` and a
        block-deterministic ``run_block`` flows through the same
        backend and the same blocked reduction.  Returns estimates in
        job order.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        tasks = plan_blocks(jobs, self.block_size)
        results = self.backend.run_tasks(tasks)
        merged: Dict[int, CellAccumulator] = {}
        # plan_blocks emits (job, block) in ascending order, so folding
        # in task order is folding in block order — the merge is
        # topology-independent whatever order the backend finished in.
        for task, shard in zip(tasks, results):
            if task.job_index in merged:
                merged[task.job_index].merge(shard)
            else:
                merged[task.job_index] = shard
        return [merged[index].finalize() for index in range(len(jobs))]
