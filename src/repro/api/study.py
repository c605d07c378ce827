"""Study: a spec bound to its cells, runnable and resumable.

``Study.run(session)`` is the one pipeline every experiment flows
through: expand the spec to its canonical cell list
(:mod:`repro.api.plans`), skip cells a partial
:class:`~repro.api.results.ResultSet` already holds, and hand the rest
to a :class:`~repro.api.scheduler.CellScheduler` — the shared compute
loop that dispatches one interleaved batch on the session's backend
and stamps each fresh record with full provenance.  The study service
(:mod:`repro.service`) drives the *same* scheduler with a content-
addressed cache behind it; ``Study.run`` is just its cache-less
client.  Resume is exact, not approximate: cell seeds are pure
functions of (root seed, cell identity), so a cell computed in a
resumed run is bit-identical to the one a fresh full run would
produce — ``tests/test_resultset.py`` pins that cell-for-cell.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.api.plans import CellPlan
from repro.api.results import ResultSet
from repro.api.scheduler import CellScheduler, ProgressCallback
from repro.api.session import Session
from repro.api.spec import StudySpec
from repro.errors import ConfigurationError

__all__ = ["Study"]


class Study:
    """A runnable study: a :class:`StudySpec` bound to its cell list.

    Parameters
    ----------
    spec:
        The declarative study description (or its JSON-object form).
    """

    def __init__(self, spec: Union[StudySpec, dict]) -> None:
        if isinstance(spec, dict):
            spec = StudySpec.from_dict(spec)
        if not isinstance(spec, StudySpec):
            raise ConfigurationError(
                f"spec must be a StudySpec or a spec dict, got "
                f"{type(spec).__name__}"
            )
        self.spec = spec.resolved()
        self._cells: Optional[List[CellPlan]] = None

    @classmethod
    def from_file(cls, path: str) -> "Study":
        return cls(StudySpec.from_file(path))

    @property
    def spec_hash(self) -> str:
        """The spec's provenance hash (see :attr:`StudySpec.spec_hash`)."""
        return self.spec.spec_hash

    def cells(self) -> List[CellPlan]:
        """The study's canonical, ordered cell list.

        Computed once and cached (the spec is frozen): expansion forks
        a ``SeedSequence`` per cell, which callers — ``run()``, CLI
        rendering, benchmarks — should not pay repeatedly on grids of
        thousands.  Returns a fresh list each call; the plans
        themselves are shared and frozen.
        """
        if self._cells is None:
            self._cells = self.spec.cells()
        return list(self._cells)

    def missing(self, partial: Optional[ResultSet]) -> List[CellPlan]:
        """The cells a partial result set does not cover yet."""
        return self._missing_from(self.cells(), partial)

    def _missing_from(
        self, plans: List[CellPlan], partial: Optional[ResultSet]
    ) -> List[CellPlan]:
        if partial is None:
            return plans
        if partial.spec_hash != self.spec_hash:
            raise ConfigurationError(
                f"result set belongs to a different study (spec hash "
                f"{partial.spec_hash!r}, this study is {self.spec_hash!r}); "
                f"refusing to resume across studies"
            )
        return [plan for plan in plans if plan.key not in partial]

    def run(
        self,
        session: Optional[Session] = None,
        *,
        resume: Optional[ResultSet] = None,
        scheduler: Optional[CellScheduler] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> ResultSet:
        """Run the study; with ``resume``, compute only missing cells.

        Returns the *complete* :class:`ResultSet` in canonical cell
        order — resumed records keep their original provenance
        verbatim (they were not recomputed), fresh ones are stamped
        with this run's.  Without a session, an ephemeral serial one is
        used (bit-identical to any other backend at the same block
        size).

        ``scheduler`` routes the compute through a shared
        :class:`~repro.api.scheduler.CellScheduler` (the study
        service's path — its cache and in-flight deduplication then
        apply); it carries its own session, so it is mutually exclusive
        with ``session``.  ``progress`` fires per resolved cell (see
        :meth:`CellScheduler.run_plans`).
        """
        if scheduler is not None and session is not None:
            raise ConfigurationError(
                "pass either session= or scheduler= (which owns its "
                "session), not both"
            )
        plans = self.cells()
        todo = self._missing_from(plans, resume)
        if scheduler is not None:
            return self._run_missing(
                scheduler.session, plans, todo, resume,
                scheduler=scheduler, progress=progress,
            )
        if session is None:
            with Session() as ephemeral:
                return self._run_missing(
                    ephemeral, plans, todo, resume, progress=progress
                )
        return self._run_missing(
            session, plans, todo, resume, progress=progress
        )

    def _effective_kernel(self, session: Session) -> str:
        """The kernel this run uses: ``fast`` if spec *or* session asks.

        The spec is the study's own declaration (hashed into its
        provenance); the session default lets a caller opt a whole
        batch of exact-spec studies into the fast kernel without
        touching their spec hashes.  Either one saying ``fast`` wins.
        """
        if self.spec.kernel == "fast" or session.kernel == "fast":
            return "fast"
        return "exact"

    def _run_missing(
        self,
        session: Session,
        plans: List[CellPlan],
        todo: List[CellPlan],
        resume: Optional[ResultSet],
        *,
        scheduler: Optional[CellScheduler] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> ResultSet:
        kernel = self._effective_kernel(session)
        if resume is not None and resume.kernel not in (None, kernel):
            raise ConfigurationError(
                f"cannot resume a {resume.kernel!r}-kernel result set "
                f"with the {kernel!r} kernel; exact and fast estimates "
                f"must not mix in one set — rerun with the matching "
                f"kernel or start a fresh result file"
            )
        fresh: dict = {}
        if todo:
            if scheduler is None:
                scheduler = CellScheduler(session)
            for record in scheduler.run_plans(
                todo,
                spec_hash=self.spec_hash,
                kernel=kernel,
                progress=progress,
            ):
                fresh[record.key] = record
        # Canonical order: the plan order, pulling each cell from the
        # resumed set or this run — so a resumed-and-completed set is
        # record-for-record aligned with a fresh full run.
        records = []
        for plan in plans:
            if plan.key in fresh:
                records.append(fresh[plan.key])
            else:
                assert resume is not None  # missing() guarantees coverage
                records.append(resume.record(plan.key))
        return ResultSet(self.spec_hash, records, spec=self.spec.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Study({self.spec.kind!r}, table={self.spec.table!r})"
