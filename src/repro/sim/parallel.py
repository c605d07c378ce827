"""Parallel Monte-Carlo batch execution with deterministic block seeding.

The paper's tables are grids of *independent* cells (task × scheme ×
fault rate), and each cell is itself ``reps`` independent runs — an
embarrassingly parallel workload that the serial harness leaves
wall-clock bound at paper scale (10,000-rep adaptive cells).  This
module cuts that work into fixed-size **rep blocks** and hands them to
an :class:`~repro.sim.backends.ExecutionBackend` — in-process, a
process pool, or a socket cluster — without changing the estimates.

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
Without a backend (the default) everything runs in-process through the
same block/merge code path.  Jobs whose policy factory cannot be
pickled (e.g. a closure) are detected up front and run in-process too,
so the runner never fails where the serial harness would have
succeeded.

The grid API (:meth:`BatchRunner.run_cells`) is what the experiment
layer uses: all blocks of all cells are interleaved in one batch, so a
grid with one slow adaptive column still keeps every worker busy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ParameterError, require_count
from repro.sim.backends import (
    CellJob,
    ExecutionBackend,
    SerialBackend,
    plan_blocks,
)
from repro.sim.montecarlo import CellAccumulator, CellEstimate

__all__ = [
    "CellJob",
    "BatchRunner",
    "DEFAULT_BLOCK_SIZE",
]

#: Reps per block when no ``chunk_size`` is given.  A topology-free
#: constant on purpose: the old heuristic (``reps / 4·workers``) let the
#: worker count shape the reduction tree, which a moment-based merge
#: cannot tolerate.  256 reps keeps per-block dispatch negligible while
#: giving a 10,000-rep cell ~40 blocks to load-balance.
DEFAULT_BLOCK_SIZE = 256


class BatchRunner:
    """Plans cell grids into rep blocks, runs them on a backend, merges.

    Parameters
    ----------
    backend:
        The :class:`~repro.sim.backends.ExecutionBackend` blocks run on;
        ``None`` (default) is a :class:`~repro.sim.backends.
        SerialBackend`.  Pass ``ProcessBackend(n)`` for a pool of ``n``
        processes, or a configured ``DistributedBackend``.  Execution
        options (worker counts, cluster size, URL, TLS, timeouts) are
        :class:`~repro.experiments.config.ExecutionSettings` fields,
        whose :meth:`~repro.experiments.config.ExecutionSettings.
        make_runner` builds the backend and the runner over it.
    chunk_size:
        Reps per block — the unit of both scheduling *and* accumulation
        (see the module docstring).  ``None`` means
        :data:`DEFAULT_BLOCK_SIZE`.  For a fixed value, results are
        bit-identical across worker counts and backends.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> None:
        if chunk_size is None:
            chunk_size = DEFAULT_BLOCK_SIZE
        self.block_size = require_count("chunk_size", chunk_size, 1)
        if backend is None:
            backend = SerialBackend()
        elif not isinstance(backend, ExecutionBackend):
            raise ParameterError(
                f"backend must be an ExecutionBackend, got {backend!r}"
            )
        self.backend: ExecutionBackend = backend

    # -- public API ----------------------------------------------------

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
