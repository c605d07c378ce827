"""The declarative façade: Session, StudySpec and Study.

Every grid kind's study is bit-identical (``CellEstimate.same_values``)
to direct per-cell :func:`~repro.sim.montecarlo.estimate` calls on the
seeds ``repro.api.plans`` documents; resume-from-partial reuses
records verbatim while recomputing only what is missing; a session
owns and releases its runner; specs validate and hash canonically.
Every grid kind's exact estimates are pinned as bytes in
``tests/test_exact_estimates.py``.
"""

from functools import partial

import pytest

from repro.api import ResultSet, Session, Study, StudySpec
from repro.api.plans import cell_label
from repro.core.schemes import AdaptiveConfig, AdaptiveSCPPolicy
from repro.errors import ConfigurationError
from repro.experiments.config import ExecutionSettings, table_spec
from repro.experiments.sweeps import FixedSubdivisionSCPPolicy
from repro.sim.montecarlo import estimate
from repro.sim.rng import RandomSource

REPS = 12


def _direct(table, u, lam, scheme, *, seed):
    """One (U, λ, scheme) cell of ``table`` as a direct ``estimate``."""
    spec = table_spec(table)
    return estimate(
        spec.task(u, lam), spec.policy_factory(scheme), reps=REPS, seed=seed
    )


def _forked_seed(table, u, lam, scheme, seed):
    """A table or row cell's seed: the root source forked by its label."""
    column = table_spec(table).schemes.index(scheme)
    return RandomSource(seed).fork(cell_label(table, u, lam, column)).seed


class TestTableConformance:
    def test_table_study_matches_direct(self):
        spec = table_spec("1b")
        results = Study(
            StudySpec(kind="table", table="1b", reps=REPS, seed=11)
        ).run()
        assert len(results) == len(spec.rows) * len(spec.schemes)
        for record in results:
            u, lam, scheme = (record.axes[a] for a in ("u", "lam", "scheme"))
            expected = _direct(
                "1b", u, lam, scheme,
                seed=_forked_seed("1b", u, lam, scheme, 11),
            )
            assert record.estimate.same_values(expected)

    def test_row_study_matches_direct(self):
        spec = table_spec("1a")
        u, lam = spec.rows[0]
        results = Study(
            StudySpec(kind="row", table="1a", u=u, lam=lam, reps=REPS, seed=5)
        ).run()
        assert [record.axes["scheme"] for record in results] == list(
            spec.schemes
        )
        for record in results:
            scheme = record.axes["scheme"]
            expected = _direct(
                "1a", u, lam, scheme,
                seed=_forked_seed("1a", u, lam, scheme, 5),
            )
            assert record.estimate.same_values(expected)


class TestStudyConformance:
    """Fixed-m, rate-factor and frontier cells share the study seed
    verbatim; the grid kinds add ``int(u * 1000)`` or
    ``int(u * 997) + int(lam * 1e7)``."""

    def test_fixed_m_matches_direct(self):
        spec = table_spec("1a")
        task = spec.task(*spec.rows[0])
        results = Study(
            StudySpec(kind="fixed_m", table="1a", ms=(1, 2), reps=REPS, seed=9)
        ).run()
        factories = {
            "m=1": partial(FixedSubdivisionSCPPolicy, 1),
            "m=2": partial(FixedSubdivisionSCPPolicy, 2),
            "adaptive": AdaptiveSCPPolicy,
        }
        assert results.keys() == list(factories)
        for key, factory in factories.items():
            expected = estimate(task, factory, reps=REPS, seed=9)
            assert results.estimate(key).same_values(expected)

    def test_rate_factor_matches_direct(self):
        spec = table_spec("1a")
        task = spec.task(*spec.rows[0])
        results = Study(
            StudySpec(kind="rate_factor", table="1a", factors=(1.0, 2.0),
                      reps=REPS, seed=2)
        ).run()
        assert results.keys() == ["factor=1.0", "factor=2.0"]
        for factor in (1.0, 2.0):
            factory = partial(
                AdaptiveSCPPolicy, AdaptiveConfig(analysis_rate_factor=factor)
            )
            expected = estimate(task, factory, reps=REPS, seed=2)
            assert results.estimate(f"factor={factor!r}").same_values(expected)

    def test_frontier_matches_direct(self):
        from repro.workloads.frontier import EquidistantPolicy

        task = table_spec("1a").task(0.5, 2e-4)
        results = Study(
            StudySpec(kind="frontier", table="1a", u=0.5, lam=2e-4,
                      freqs=(1.0, 2.0), ms=(1, 2), reps=REPS, seed=8)
        ).run()
        assert len(results) == 4
        for record in results:
            f, m = record.axes["f"], record.axes["m"]
            expected = estimate(
                task, partial(EquidistantPolicy, f, m), reps=REPS, seed=8
            )
            assert record.estimate.same_values(expected)

    def test_utilization_matches_direct(self):
        spec = table_spec("1a")
        results = Study(
            StudySpec(kind="utilization", table="1a", u_grid=(0.6, 0.8),
                      lam=1.4e-3, reps=REPS, seed=4)
        ).run()
        assert len(results) == 2 * len(spec.schemes)
        for record in results:
            u, scheme = record.axes["u"], record.axes["scheme"]
            expected = _direct(
                "1a", u, 1.4e-3, scheme, seed=4 + int(u * 1000)
            )
            assert record.estimate.same_values(expected)

    def test_operating_map_matches_direct(self):
        spec = table_spec("1a")
        results = Study(
            StudySpec(kind="operating_map", table="1a", u_grid=(0.6, 0.8),
                      lam_grid=(1e-4, 1.4e-3), reps=REPS, seed=6)
        ).run()
        assert len(results) == 4 * len(spec.schemes)
        for record in results:
            u, lam, scheme = (record.axes[a] for a in ("u", "lam", "scheme"))
            expected = _direct(
                "1a", u, lam, scheme,
                seed=6 + int(u * 997) + int(lam * 1e7),
            )
            assert record.estimate.same_values(expected)


class TestResume:
    def test_resume_reuses_records_verbatim_and_completes(self):
        study = Study(
            StudySpec(kind="fixed_m", table="1a", ms=(1, 2), reps=REPS, seed=1)
        )
        fresh = study.run()
        kept = fresh.records[:2]
        partial = ResultSet(fresh.spec_hash, kept, spec=fresh.spec)
        resumed = study.run(resume=partial)
        assert resumed.same_values(fresh)
        assert resumed.keys() == fresh.keys()
        # Reused records are the partial set's objects, untouched — the
        # proof nothing already present was recomputed.
        for record in kept:
            assert resumed.record(record.key) is record

    def test_resume_against_other_study_rejected(self):
        study_a = Study(StudySpec(kind="fixed_m", table="1a", ms=(1,),
                                  reps=REPS, seed=1))
        study_b = Study(StudySpec(kind="fixed_m", table="1a", ms=(1,),
                                  reps=REPS, seed=2))
        partial = study_a.run()
        with pytest.raises(ConfigurationError):
            study_b.run(resume=partial)

    def test_missing_lists_only_uncovered_cells(self):
        study = Study(StudySpec(kind="fixed_m", table="1a", ms=(1, 2),
                                reps=REPS, seed=1))
        fresh = study.run()
        partial = ResultSet(fresh.spec_hash, fresh.records[1:],
                            spec=fresh.spec)
        missing = study.missing(partial)
        assert [plan.key for plan in missing] == [fresh.records[0].key]


class TestSession:
    def test_owned_session_closes_its_runner(self):
        with Session(chunk_size=16) as session:
            assert session.block_size == 16
            assert session.backend_name == "serial"
        assert session.closed
        with pytest.raises(ConfigurationError):
            session.run_cells([])

    def test_settings_and_shorthand_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            Session(ExecutionSettings(), backend="process")

    def test_session_estimate_matches_module_estimate(self):
        from repro.core.schemes import AdaptiveSCPPolicy

        task = table_spec("1a").task(0.76, 1.4e-3)
        direct = estimate(task, AdaptiveSCPPolicy, reps=REPS, seed=13)
        with Session() as session:
            ours = session.estimate(task, AdaptiveSCPPolicy, reps=REPS, seed=13)
        assert ours.same_values(direct)

    def test_session_reused_across_studies(self):
        with Session() as session:
            a = session.run(StudySpec(kind="fixed_m", table="1a", ms=(1,),
                                      reps=REPS, seed=1))
            b = session.run(StudySpec(kind="rate_factor", table="1a",
                                      factors=(1.0,), reps=REPS, seed=1))
        assert len(a) == 2 and len(b) == 1

    def test_describe_names_backend_and_block_size(self):
        with Session(chunk_size=64) as session:
            assert session.describe() == "serial/64"


class TestStudySpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="nope")

    def test_row_needs_point(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="row", table="1a", u=0.8)

    def test_utilization_needs_grid_and_lam(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="utilization", table="1a", lam=1e-3)
        with pytest.raises(ConfigurationError):
            StudySpec(kind="utilization", table="1a", u_grid=(0.8,))

    def test_operating_map_needs_both_grids(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="operating_map", table="1a", u_grid=(0.8,))

    def test_fast_static_rejected_for_adaptive_only_kinds(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="fixed_m", table="1a", fast_static=True)

    def test_stray_axis_fields_rejected(self):
        # A silently-ignored axis would still perturb spec_hash and
        # break resume between semantically identical specs.
        with pytest.raises(ConfigurationError, match="do not apply"):
            StudySpec(kind="table", table="1a", u=0.5)
        with pytest.raises(ConfigurationError, match="do not apply"):
            StudySpec(kind="utilization", table="1a", u_grid=(0.8,),
                      lam=1e-3, ms=(1, 2))
        with pytest.raises(ConfigurationError, match="do not apply"):
            StudySpec(kind="operating_map", table="1a", u_grid=(0.8,),
                      lam_grid=(1e-4,), u=0.8)

    def test_unknown_json_field_rejected(self):
        with pytest.raises(ConfigurationError):
            StudySpec.from_json('{"kind": "table", "tabel": "1a"}')

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "utilization", "table": "1a", "u_grid": 5, "lam": 1e-4},
            {"kind": "table", "table": "1a", "reps": "lots"},
            {"kind": "table", "table": "1a", "seed": 1.5},
            {"kind": "fixed_m", "table": "1a", "ms": [1.5]},
            {"kind": "table", "table": "1a", "fast_static": "yes"},
            {"kind": "table", "table": 1},
        ],
    )
    def test_malformed_field_types_fail_cleanly(self, payload):
        # A raw TypeError would escape the CLI's ReproError handler;
        # a truncated seed (1.5 -> 1) would compute seed-1 estimates
        # under a different spec hash.  Both must be clean rejections.
        with pytest.raises(ConfigurationError):
            StudySpec.from_dict(payload)

    def test_duplicate_grid_values_rejected_up_front(self):
        # Duplicates would collide on cell keys only *after* the whole
        # study had been computed.
        with pytest.raises(ConfigurationError, match="duplicate"):
            StudySpec(kind="fixed_m", table="1a", ms=(2, 2))
        with pytest.raises(ConfigurationError, match="duplicate"):
            StudySpec(kind="utilization", table="1a", u_grid=(0.8, 0.8),
                      lam=1e-3)

    def test_numeric_spellings_hash_identically(self):
        a = StudySpec(kind="fixed_m", table="1a", ms=(1, 2),
                      factors=(), u=1, lam=1e-3)
        b = StudySpec(kind="fixed_m", table="1a", ms=(1, 2),
                      factors=(), u=1.0, lam=1e-3)
        assert a.spec_hash == b.spec_hash

    def test_cells_are_cached_per_study(self):
        study = Study(StudySpec(kind="fixed_m", table="1a", ms=(1,),
                                reps=REPS, seed=1))
        first, second = study.cells(), study.cells()
        assert first is not second  # callers get their own list
        assert [a.key for a in first] == [b.key for b in second]
        assert all(a is b for a, b in zip(first, second))  # shared plans

    def test_defaults_resolve_to_legacy_entrypoint_defaults(self):
        resolved = StudySpec(kind="table").resolved()
        assert (resolved.reps, resolved.seed) == (2000, 2006)
        resolved = StudySpec(kind="operating_map", u_grid=(0.8,),
                             lam_grid=(1e-4,)).resolved()
        assert (resolved.reps, resolved.seed) == (300, 0)
        resolved = StudySpec(kind="fixed_m").resolved()
        assert resolved.ms == (1, 2, 4, 8, 16)
        assert (resolved.u, resolved.lam) == table_spec("1a").rows[0]

    def test_hash_stable_across_default_spelling(self):
        minimal = StudySpec(kind="table", table="2a")
        explicit = StudySpec(kind="table", table="2a", reps=2000, seed=2006)
        assert minimal.spec_hash == explicit.spec_hash
        assert minimal.spec_hash != StudySpec(kind="table", table="2b").spec_hash

    def test_json_round_trip(self):
        spec = StudySpec(kind="operating_map", table="3a", reps=40, seed=7,
                         u_grid=(0.6, 0.8), lam_grid=(1e-4,), fast_static=True)
        again = StudySpec.from_json(spec.to_json())
        assert again.resolved() == spec.resolved()
        assert again.spec_hash == spec.spec_hash


class TestDeprecatedScatteredKwargs:
    """The scattered per-call execution kwargs are gone; one
    ExecutionSettings replaces them."""

    def test_execution_settings_is_the_replacement(self):
        settings = ExecutionSettings(chunk_size=64)
        with Session(settings) as session:
            assert session.block_size == 64
