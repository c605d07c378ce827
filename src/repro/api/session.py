"""The execution session: one owned backend/runner, reused everywhere.

A :class:`Session` owns one :class:`~repro.sim.parallel.BatchRunner`
for its whole lifetime — built from one validated
:class:`~repro.experiments.config.ExecutionSettings` (the single source
of truth for *where things run*) — and every study or ad-hoc estimate
run through it reuses the same workers, so a process pool starts once::

    from repro.api import Session, StudySpec

    with Session(backend="process", workers=8) as session:
        a = session.run(StudySpec(kind="table", table="1a", reps=2000))
        b = session.run(StudySpec(kind="operating_map", table="1a",
                                  u_grid=[0.6, 0.8], lam_grid=[1e-4, 1e-3]))

Results are bit-identical to the serial pass for a fixed block size —
the session changes resource lifetimes, never estimates.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.experiments.config import ExecutionSettings
from repro.sim.montecarlo import CellEstimate
from repro.sim.parallel import BatchRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.results import ResultSet
    from repro.api.spec import StudySpec
    from repro.api.study import Study

__all__ = ["Session"]


class Session:
    """Owns one backend/runner lifecycle; the façade's execution seam.

    Parameters
    ----------
    settings:
        An :class:`~repro.experiments.config.ExecutionSettings` — the
        one validated where-does-it-run selector.  Mutually exclusive
        with the keyword shorthand below.
    backend / workers / chunk_size / cluster_workers / url / kernel:
        Shorthand forwarded into a fresh ``ExecutionSettings`` —
        ``Session(backend="process", workers=8)`` reads like the CLI.

    The session owns its runner and releases it on :meth:`close` (or
    context-manager exit); a closed session rejects further work
    instead of silently rebuilding resources.
    """

    def __init__(
        self,
        settings: Optional[ExecutionSettings] = None,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        cluster_workers: int = 0,
        url: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> None:
        shorthand = (
            backend is not None
            or workers is not None
            or chunk_size is not None
            or cluster_workers
            or url is not None
            or kernel is not None
        )
        if settings is not None and shorthand:
            raise ConfigurationError(
                "pass either settings= or the backend/workers/... "
                "shorthand, not both"
            )
        self.settings = settings or ExecutionSettings(
            backend=backend,
            workers=workers,
            chunk_size=chunk_size,
            cluster_workers=cluster_workers,
            url=url,
            kernel=kernel or "exact",
        )
        self._runner = self.settings.make_runner()
        self._closed = False

    # -- introspection -------------------------------------------------

    @property
    def runner(self) -> BatchRunner:
        """The session's :class:`BatchRunner` (stable for its lifetime)."""
        self._check_open()
        return self._runner

    @property
    def backend_name(self) -> str:
        """Name of the execution backend (``serial``/``process``/…)."""
        return self._runner.backend.name

    @property
    def block_size(self) -> int:
        """The determinism-contract block size cells are cut into."""
        return self._runner.block_size

    @property
    def kernel(self) -> str:
        """The session's default executor kernel (``exact``/``fast``)."""
        return self.settings.kernel

    def describe(self) -> str:
        """Human-readable execution provenance, e.g. ``process[8]/256``."""
        backend = self._runner.backend
        detail = f"[{backend.workers}]" if backend.name == "process" else ""
        return f"{backend.name}{detail}/{self.block_size}"

    # -- execution -----------------------------------------------------

    def run(
        self,
        study: Union["Study", "StudySpec"],
        *,
        resume: Optional["ResultSet"] = None,
    ) -> "ResultSet":
        """Run a study (or a bare spec) on this session's backend.

        With ``resume``, only cells missing from the partial
        :class:`~repro.api.results.ResultSet` are computed; the result
        is the completed set (see :meth:`repro.api.study.Study.run`).
        """
        from repro.api.study import Study

        if not isinstance(study, Study):
            study = Study(study)
        return study.run(self, resume=resume)

    def run_cells(self, jobs: Sequence[object]) -> List[CellEstimate]:
        """Estimate a grid of prepared cell jobs (façade internals)."""
        self._check_open()
        return self._runner.run_cells(jobs)

    def estimate(
        self,
        task,
        policy_factory,
        *,
        reps: int,
        seed: int = 0,
        **kwargs,
    ) -> CellEstimate:
        """One ad-hoc cell on this session's backend.

        The session-owned twin of :func:`repro.sim.montecarlo.estimate`
        — same arguments (minus ``runner``, which the session
        supplies), same blocked reduction, same estimates.
        """
        from repro.sim.montecarlo import estimate as estimate_cell

        self._check_open()
        return estimate_cell(
            task,
            policy_factory,
            reps=reps,
            seed=seed,
            runner=self._runner,
            **kwargs,
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release owned execution resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "session is closed; build a new Session for further runs"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Session({self.describe()}, {state})"


def timed_run_cells(session: Session, jobs: Sequence[object]):
    """Run jobs through a session, returning (estimates, wall, cpu).

    Shared by :class:`~repro.api.study.Study` so every record's
    wall/compute provenance is measured the same way: wall clock around
    the whole batch, plus this process's CPU seconds (for parallel
    backends that is coordination cost, not worker compute).
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    estimates = session.run_cells(jobs)
    return (
        estimates,
        time.perf_counter() - wall_start,
        time.process_time() - cpu_start,
    )
