"""repro.service — the multi-tenant study service.

The serving layer the ROADMAP's north star calls for: an HTTP
coordinator daemon (``repro serve``) that accepts
:class:`~repro.api.spec.StudySpec` JSON submissions, schedules their
cells onto one shared :class:`~repro.api.session.Session` via the
:class:`~repro.api.scheduler.CellScheduler`, streams per-cell
progress, and memoises every completed cell in a content-addressed
:class:`CellCache` — so overlapping studies from any number of
concurrent clients compute each unique cell exactly once and the rest
are cache hits served verbatim.

* :class:`CellCache` — the on-disk store: ``cell_identity`` key →
  :class:`~repro.api.results.CellRecord`, atomic writes, exact JSON.
* :class:`StudyService` — submission handling over one session,
  scheduler and cache; :func:`serve_forever` wraps it in a threaded
  HTTP server.
* :func:`submit_study` — the client half (``repro submit``).

Each name is imported from its module on first access, so the client
half loads neither the server nor numpy.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "repro.service.cache": ("CellCache",),
        "repro.service.server": ("StudyService", "make_server", "serve_forever"),
        "repro.service.client": ("submit_study", "fetch_stats", "wait_until_ready"),
    },
)
