"""repro.api — the declarative study façade.

One import gives the whole pipeline::

    from repro.api import Session, Study, StudySpec, ResultSet

    spec = StudySpec(kind="table", table="1a", reps=2000, seed=2006)
    with Session(backend="process") as session:
        results = session.run(spec)           # a ResultSet
    results.save("table1a.json")              # exact, resumable
    # later / elsewhere:
    partial = ResultSet.load("table1a.json")
    Study(spec).run(resume=partial)           # computes only missing cells

* :class:`Session` owns one execution backend for its lifetime (the
  CLI flags, as an object).
* :class:`StudySpec` describes any of the library's experiments as
  data — tables, rows, fixed-m / rate-factor ablations, utilisation
  sweeps, operating maps — with JSON round-tripping and a stable
  content hash.
* :class:`Study` binds a spec to its canonical cell list and runs it;
  resume-from-partial recomputes only missing cells, bit-identically.
* :class:`ResultSet` is the first-class result: cell-level records
  with full provenance, exact JSON round-trip (NaN included), CSV
  export, and merge of disjoint partial runs.

The legacy entrypoints (``run_table``, ``fixed_m_study``,
``utilization_sweep``, ``operating_map``, …) are thin shims over this
façade and remain supported; estimates are bit-identical either way.

Each name is imported from its module on first access, so
``from repro.api import ResultSet`` loads no simulator.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "repro.api.plans": ("CellPlan",),
        "repro.api.results": ("CellRecord", "ResultSet"),
        "repro.api.session": ("Session",),
        "repro.api.study": ("Study",),
        "repro.api.spec": ("StudySpec",),
        "repro.choices": ("STUDY_KINDS",),
    },
)
