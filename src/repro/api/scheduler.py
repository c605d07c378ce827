"""The cell scheduler: one compute loop for every study client.

Before this module, :meth:`repro.api.study.Study.run` owned the loop
that turned missing :class:`~repro.api.plans.CellPlan`\\ s into
provenance-stamped :class:`~repro.api.results.CellRecord`\\ s.  The
study service needs that exact loop too — plus memoisation and
concurrency — so it lives here once and both are clients:

* :class:`~repro.api.study.Study` builds a private, cache-less
  scheduler per run (behaviour identical to the old in-study loop);
* the service (:mod:`repro.service`) shares one scheduler across every
  HTTP submission, backed by a content-addressed
  :class:`~repro.service.cache.CellCache`, so overlapping studies from
  concurrent clients compute each unique cell exactly once.

Identity, not study membership, is the unit of reuse: a cell is keyed
by :func:`~repro.api.plans.cell_identity` (job content + block size +
kernel), and a cached estimate is served *verbatim* — the same
:class:`~repro.sim.montecarlo.CellEstimate` bytes the original
computation produced, restamped only with the requesting study's key,
axes and spec hash.  ``exact`` and ``fast`` kernel cells have different
identities by construction and can never alias.

Thread safety: the scheduler may be hammered by many request threads.
Claims are arbitrated under one lock; the first thread to want a cell
computes it, later threads block on its completion event; calls into
the session's backend are serialised by a FIFO turnstile (the backend
parallelises internally — two interleaved ``run_cells`` batches on one
pool would fight over the same workers anyway).

Fairness: with ``fair_share`` set, a caller's cells run in chunks of
that many per turnstile turn instead of one monolithic batch, and the
turnstile hands turns out in arrival order — so concurrent submissions
round-robin at chunk granularity and a 10,000-cell study delays a
4-cell study by one chunk, not by its whole runtime.  ``None`` (the
default, and what :meth:`Study.run`'s private scheduler uses) keeps the
single-batch behaviour and its provenance stamps bit-identical to the
pre-fairness scheduler.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.api.plans import CellPlan, cell_identity
from repro.api.results import CellRecord, git_describe
from repro.api.session import Session, timed_run_cells
from repro.errors import ParameterError, SimulationError

__all__ = ["CellScheduler", "job_with_kernel"]

#: Progress callback: ``(plan, record, cached)`` as each cell resolves.
ProgressCallback = Callable[[CellPlan, CellRecord, bool], None]


def job_with_kernel(job: object, kernel: str) -> object:
    """Stamp the effective kernel onto a cell job, where it applies.

    Only :class:`~repro.sim.backends.CellJob` carries a ``kernel``
    field; analytic cells (:class:`~repro.sim.backends.AnalyticCellJob`)
    draw nothing, so the mode is a no-op for them and they ship
    unchanged.
    """
    if kernel == "exact" or not hasattr(job, "kernel"):
        return job
    import dataclasses

    return dataclasses.replace(job, kernel=kernel)


class _Pending:
    """One in-flight cell: who waits, and what it resolved to."""

    __slots__ = ("event", "record", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.record: Optional[CellRecord] = None
        self.error: Optional[BaseException] = None


class _Turnstile:
    """FIFO mutual exclusion: turns are granted in arrival order.

    ``threading.Lock`` makes no fairness promise — a thread hammering
    acquire/release in a loop can starve patient waiters indefinitely,
    which is exactly the shape of a huge study computing chunk after
    chunk while a small one waits.  Each waiter therefore queues an
    event; releasing wakes the *head* of the queue, so interleaved
    chunked submissions round-robin by construction.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: Deque[threading.Event] = deque()

    @contextmanager
    def turn(self):
        ticket = threading.Event()
        with self._lock:
            self._waiters.append(ticket)
            if len(self._waiters) == 1:
                ticket.set()
        ticket.wait()
        try:
            yield
        finally:
            with self._lock:
                self._waiters.popleft()
                if self._waiters:
                    self._waiters[0].set()


class CellScheduler:
    """Runs cell plans through one session, deduplicating and memoising.

    Parameters
    ----------
    session:
        The :class:`~repro.api.session.Session` whose backend computes
        cache misses.  The scheduler borrows it; closing is the
        caller's business.
    cache:
        Optional content-addressed store with ``get(identity) ->
        CellRecord | None`` and ``put(identity, record)`` (the
        service's :class:`~repro.service.cache.CellCache`).  ``None``
        means no memoisation across calls — in-flight deduplication
        between concurrent callers still applies.
    fair_share:
        Cells per compute turn.  ``None`` (default) computes each
        caller's misses as one batch — the historical behaviour, with
        identical provenance stamps.  A positive value chunks the batch
        and takes one FIFO turnstile turn per chunk, so concurrent
        submissions interleave round-robin instead of queueing whole
        studies (each chunk gets its own ``batch`` id and timings).

    Counters (``hits``/``misses``/``uncacheable``) accumulate across
    the scheduler's lifetime and feed the service's ``/stats``.
    """

    def __init__(
        self,
        session: Session,
        *,
        cache: Optional[object] = None,
        fair_share: Optional[int] = None,
    ) -> None:
        if fair_share is not None and fair_share < 1:
            raise ParameterError(
                f"fair_share must be >= 1 (or None for one batch per "
                f"caller), got {fair_share}"
            )
        self.session = session
        self.cache = cache
        self.fair_share = fair_share
        self._lock = threading.Lock()
        self._turnstile = _Turnstile()
        self._inflight: Dict[str, _Pending] = {}
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "uncacheable": self.uncacheable,
                "in_flight": len(self._inflight),
                "fair_share": self.fair_share,
            }

    # -- the loop ------------------------------------------------------

    def run_plans(
        self,
        plans: Sequence[CellPlan],
        *,
        spec_hash: str,
        kernel: str = "exact",
        progress: Optional[ProgressCallback] = None,
    ) -> List[CellRecord]:
        """Resolve every plan to a :class:`CellRecord`, in plan order.

        Cache hits (and cells another thread is already computing) are
        served verbatim and restamped with this study's key/axes/spec
        hash; the rest are computed as one batch on the session's
        backend and stamped with fresh provenance — exactly the records
        the pre-scheduler ``Study.run`` loop produced.

        ``progress`` fires once per cell: immediately for cache hits,
        on batch completion for computed cells, after the wait for
        cells another caller computed.
        """
        jobs = [job_with_kernel(plan.job, kernel) for plan in plans]
        identities = [
            cell_identity(job, block_size=self.session.block_size)
            for job in jobs
        ]

        records: List[Optional[CellRecord]] = [None] * len(plans)
        todo: List[int] = []  # positions this call must compute
        waiting: List[tuple] = []  # (position, pending another thread owns)

        with self._lock:
            for position, identity in enumerate(identities):
                if identity is None:
                    self.uncacheable += 1
                    todo.append(position)
                    continue
                cached = self.cache.get(identity) if self.cache else None
                if cached is not None:
                    self.hits += 1
                    records[position] = self._restamp(
                        cached, plans[position], spec_hash
                    )
                    continue
                pending = self._inflight.get(identity)
                if pending is not None:
                    self.hits += 1
                    waiting.append((position, pending))
                    continue
                self.misses += 1
                self._inflight[identity] = _Pending()
                todo.append(position)

        if progress is not None:
            for position in range(len(plans)):
                if records[position] is not None:
                    progress(plans[position], records[position], True)

        if todo:
            self._compute(
                plans, jobs, identities, todo, records, spec_hash, kernel,
                progress,
            )

        for position, pending in waiting:
            record = self._await_pending(identities[position], pending)
            if record is None:
                raise SimulationError(
                    f"cell {plans[position].key!r} was claimed by another "
                    f"caller but never resolved"
                )
            records[position] = self._restamp(record, plans[position], spec_hash)
            if progress is not None:
                progress(plans[position], records[position], True)

        return records  # type: ignore[return-value] - every slot filled

    # -- internals -----------------------------------------------------

    def _compute(
        self,
        plans: Sequence[CellPlan],
        jobs: Sequence[object],
        identities: Sequence[Optional[str]],
        todo: Sequence[int],
        records: List[Optional[CellRecord]],
        spec_hash: str,
        kernel: str,
        progress: Optional[ProgressCallback],
    ) -> None:
        """Run the claimed cells chunk by chunk; always release claims.

        With ``fair_share=None`` the whole ``todo`` list is one chunk —
        one ``timed_run_cells`` call, one batch stamp, exactly the
        historical behaviour.  Otherwise each chunk takes its own
        turnstile turn, so other callers' chunks interleave between
        ours.
        """
        share = self.fair_share or len(todo)
        try:
            for start in range(0, len(todo), share):
                chunk = todo[start : start + share]
                with self._turnstile.turn():
                    estimates, wall, cpu = timed_run_cells(
                        self.session, [jobs[position] for position in chunk]
                    )
                # One opaque id per batch: cells computed together share
                # it, so ResultSet.wall_seconds can count each batch once
                # even when two batches report equal wall clocks.
                stamp = dict(
                    spec_hash=spec_hash,
                    block_size=self.session.block_size,
                    backend=self.session.backend_name,
                    git=git_describe(),
                    wall_seconds=wall,
                    compute_seconds=cpu,
                    batch=uuid.uuid4().hex[:16],
                    kernel=kernel,
                )
                for position, estimate in zip(chunk, estimates):
                    plan = plans[position]
                    record = CellRecord(
                        key=plan.key,
                        axes=dict(plan.axes),
                        estimate=estimate,
                        seed=plan.job.seed,
                        **stamp,
                    )
                    records[position] = record
                    identity = identities[position]
                    if identity is not None:
                        if self.cache is not None:
                            self.cache.put(identity, record)
                        self._resolve(identity, record=record)
                    if progress is not None:
                        progress(plan, record, False)
        except BaseException as exc:
            # Waiters must never hang on a claim the computing thread
            # abandoned; hand them the failure instead.
            for position in todo:
                identity = identities[position]
                if identity is not None and records[position] is None:
                    self._resolve(identity, error=exc)
            raise

    def _resolve(
        self,
        identity: str,
        *,
        record: Optional[CellRecord] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            pending = self._inflight.pop(identity, None)
        if pending is not None:
            pending.record = record
            pending.error = error
            pending.event.set()

    def _await_pending(
        self, identity: str, pending: _Pending
    ) -> Optional[CellRecord]:
        pending.event.wait()
        if pending.error is not None:
            raise SimulationError(
                f"the caller computing shared cell {identity[:12]}… failed: "
                f"{pending.error}"
            ) from pending.error
        return pending.record

    @staticmethod
    def _restamp(record: CellRecord, plan: CellPlan, spec_hash: str) -> CellRecord:
        """A cached record as *this* study's cell.

        The estimate and its compute provenance (seed, block size,
        backend, git, timings, batch, kernel) are served verbatim —
        that is the byte-identity contract; only the study-relative
        fields (key, axes, spec hash) are the requester's.
        """
        import dataclasses

        if (
            record.key == plan.key
            and record.spec_hash == spec_hash
            and record.axes == dict(plan.axes)
        ):
            return record
        return dataclasses.replace(
            record,
            key=plan.key,
            axes=dict(plan.axes),
            spec_hash=spec_hash,
        )
