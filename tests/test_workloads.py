"""repro.workloads: generators, EDF engine, frontier studies, cache prune.

Covers the workload subsystem end to end: property tests on the
taskset generators (target utilization, bit-identical regeneration),
the feasibility-then-lowest-energy selection rule, scheduler chunk
overrides, backend bit-identity for the two new study kinds, spec-hash
stability (including every pre-existing kind's pinned hash), Pareto
dominance, cache eviction, the committed taskset golden, and the CLI
surface (``--list-kinds``, ``repro cache prune``).
"""

import json
import math
import os
import pickle
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ResultSet, Session, Study, StudySpec
from repro.api.plans import cell_identity
from repro.api.results import json_dumps_exact, json_loads_exact
from repro.api.spec import KIND_SUMMARIES, STUDY_KINDS
from repro.cli import build_parser, main
from repro.errors import ConfigurationError, ParameterError
from repro.rts.generators import (
    WORKLOAD_PATTERNS,
    WorkloadParams,
    generate_taskset,
)
from repro.rts.scheduler import simulate_schedule
from repro.service.cache import CellCache
from repro.service.server import StudyService
from repro.workloads import (
    EquidistantPolicy,
    TasksetCellJob,
    pareto_points,
    render_frontier,
    select_configuration,
)
from repro.goldens import record_taskset_golden, replay

GOLDEN_PATH = (
    Path(__file__).resolve().parent / "goldens" / "taskset" / "bursty-edf.jsonl"
)

#: Spec hashes are provenance: resume, merge, and the service cache all
#: gate on them.  The first nine pins predate the workload kinds and
#: MUST NOT move — a change means defaults leaked into the canonical
#: payload.  The last four pin the new kinds from their introduction.
PINNED_SPEC_HASHES = {
    "table_1a": "dd01af1b521b4313",
    "table_2b_fast_static": "30a98b4b06b7a496",
    "row_1a": "dcf5e0fa3565fcc9",
    "fixed_m_1a": "78387339d2a5ff26",
    "fixed_m_3a_ms": "1761c603e4a88f38",
    "rate_factor_1a": "f9fd88b36109f88b",
    "utilization_1a": "bac33f17e9d41692",
    "operating_map_1b": "e5de5a61fa7bdd39",
    "table_1a_fast": "e83e2e5d5e7ff14a",
    "taskset_default": "a4fb8ce666883fa7",
    "taskset_custom": "506d5bf95e39f506",
    "frontier_default": "c20660fc9cee73eb",
    "frontier_custom": "e9535fd60cfc94f8",
}


def _pinned_specs():
    return {
        "table_1a": StudySpec(kind="table", table="1a"),
        "table_2b_fast_static": StudySpec(
            kind="table", table="2b", reps=500, seed=7, fast_static=True
        ),
        "row_1a": StudySpec(kind="row", table="1a", u=0.8, lam=0.0014),
        "fixed_m_1a": StudySpec(kind="fixed_m", table="1a"),
        "fixed_m_3a_ms": StudySpec(kind="fixed_m", table="3a", ms=(1, 2, 4)),
        "rate_factor_1a": StudySpec(
            kind="rate_factor", table="1a", factors=(1.0, 2.0, 4.0)
        ),
        "utilization_1a": StudySpec(
            kind="utilization", table="1a", u_grid=(0.6, 0.8), lam=1e-4
        ),
        "operating_map_1b": StudySpec(
            kind="operating_map", table="1b",
            u_grid=(0.6, 0.8), lam_grid=(1e-4, 1.4e-3),
        ),
        "table_1a_fast": StudySpec(kind="table", table="1a", kernel="fast"),
        "taskset_default": StudySpec(kind="taskset", table="1a"),
        "taskset_custom": StudySpec(
            kind="taskset", table="1a", patterns=("light", "bursty"),
            u_grid=(0.5, 0.8), lam=2e-4, n_tasks=3, horizon=8000.0,
            reps=40, seed=2006,
        ),
        "frontier_default": StudySpec(kind="frontier", table="1a"),
        "frontier_custom": StudySpec(
            kind="frontier", table="1a", u=0.5, lam=2e-4,
            ms=(1, 2, 4, 8), reps=400, seed=2006,
        ),
    }


SMALL_TASKSET_SPEC = StudySpec(
    kind="taskset", table="1a", patterns=("light", "bursty"),
    u_grid=(0.5,), lam=2e-4, n_tasks=3, horizon=4000.0, reps=6, seed=9,
)
SMALL_FRONTIER_SPEC = StudySpec(
    kind="frontier", table="1a", u=0.5, lam=2e-4, ms=(1, 2), reps=8, seed=9,
)


# ---------------------------------------------------------------------------
# taskset generators


pattern_st = st.sampled_from(WORKLOAD_PATTERNS)
seed_st = st.integers(min_value=0, max_value=2**63 - 1)


class TestGenerators:
    @given(pattern_st, seed_st,
           st.floats(min_value=0.2, max_value=0.95),
           st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_target_utilization_is_hit(self, pattern, seed, u, n):
        params = WorkloadParams(pattern=pattern, n_tasks=n, utilization=u)
        taskset = generate_taskset(seed, params)
        total = sum(t.cycles / t.period for t in taskset.tasks)
        assert total == pytest.approx(u, rel=1e-9)

    @given(pattern_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_regenerates_bit_identically(self, pattern, seed):
        params = WorkloadParams(pattern=pattern)
        assert generate_taskset(seed, params) == generate_taskset(seed, params)

    def test_different_seeds_differ(self):
        params = WorkloadParams(pattern="bursty")
        assert generate_taskset(1, params) != generate_taskset(2, params)

    def test_different_patterns_differ(self):
        a = generate_taskset(5, WorkloadParams(pattern="light"))
        b = generate_taskset(5, WorkloadParams(pattern="heavy"))
        assert a != b

    @given(pattern_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_tasks_are_well_formed(self, pattern, seed):
        taskset = generate_taskset(seed, WorkloadParams(pattern=pattern))
        for task in taskset.tasks:
            assert task.cycles > 0
            assert task.period > 0
            assert 0 < task.deadline <= task.period

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ParameterError):
            WorkloadParams(pattern="spiky")

    def test_bad_shape_rejected(self):
        with pytest.raises(ParameterError):
            WorkloadParams(pattern="light", n_tasks=0)
        with pytest.raises(ParameterError):
            WorkloadParams(pattern="light", utilization=0.0)


# ---------------------------------------------------------------------------
# scheduler extensions: chunk overrides + checkpoint accounting


def _small_taskset():
    return generate_taskset(
        11, WorkloadParams(pattern="light", n_tasks=2, utilization=0.4)
    )


class TestChunkOverrides:
    def test_overrides_set_the_chunk_count(self):
        taskset = generate_taskset(
            11, WorkloadParams(pattern="light", n_tasks=2,
                               utilization=0.4, fault_rate=1e-12)
        )
        name = taskset.tasks[0].name
        chunk = (taskset.tasks[0].cycles / 1.0) / 4
        plain = simulate_schedule(taskset, horizon=8000.0, seed=3)
        overridden = simulate_schedule(
            taskset, horizon=8000.0, seed=3,
            chunk_overrides={name: chunk},
        )
        over = [j.checkpoints for j in overridden.jobs
                if j.task_name == name and j.deadline_met]
        # Fault-free: exactly the requested 4 chunks per completed job.
        assert over and set(over) == {4}
        plain_cp = [j.checkpoints for j in plain.jobs
                    if j.task_name == name and j.deadline_met]
        assert set(plain_cp) != {4}  # the override actually took effect

    def test_unknown_task_rejected(self):
        with pytest.raises(ParameterError):
            simulate_schedule(
                _small_taskset(), horizon=1000.0,
                chunk_overrides={"nope": 10.0},
            )

    def test_nonpositive_chunk_rejected(self):
        taskset = _small_taskset()
        with pytest.raises(ParameterError):
            simulate_schedule(
                taskset, horizon=1000.0,
                chunk_overrides={taskset.tasks[0].name: 0.0},
            )

    def test_result_totals(self):
        result = simulate_schedule(_small_taskset(), horizon=8000.0, seed=3)
        assert result.total_checkpoints == sum(
            j.checkpoints for j in result.jobs
        )
        assert result.total_faults == sum(j.faults for j in result.jobs)
        assert result.makespan == max(j.completed_at for j in result.jobs)


# ---------------------------------------------------------------------------
# operating-point selection


class TestSelectConfiguration:
    def test_light_load_picks_the_slow_frequency(self):
        taskset = generate_taskset(
            7, WorkloadParams(pattern="light", n_tasks=3, utilization=0.3)
        )
        config = select_configuration(taskset)
        assert config.feasible
        assert config.frequency == 1.0  # feasible and lowest energy

    def test_overload_falls_back_to_fastest_infeasible(self):
        taskset = generate_taskset(
            7, WorkloadParams(pattern="light", n_tasks=3, utilization=0.95,
                              fault_rate=5e-3, fault_budget=6)
        )
        config = select_configuration(taskset, frequencies=(0.25,))
        assert not config.feasible
        assert config.frequency == 0.25

    def test_frequency_order_does_not_matter(self):
        taskset = _small_taskset()
        a = select_configuration(taskset, frequencies=(1.0, 2.0))
        b = select_configuration(taskset, frequencies=(2.0, 1.0))
        assert a == b

    def test_checkpoint_counts_cover_every_task(self):
        taskset = _small_taskset()
        config = select_configuration(taskset)
        assert {name for name, _ in config.checkpoint_counts} == {
            t.name for t in taskset.tasks
        }
        assert all(count >= 1 for _, count in config.checkpoint_counts)


# ---------------------------------------------------------------------------
# the taskset cell job


class TestTasksetCellJob:
    def _job(self, reps=8):
        return TasksetCellJob(
            params=WorkloadParams(pattern="bursty", n_tasks=3,
                                  utilization=0.5, fault_rate=2e-4),
            horizon=4000.0,
            reps=reps,
            seed=17,
        )

    def test_split_merge_bit_identity(self):
        job = self._job()
        whole = job.run_block(0, 0, 8)
        left = job.run_block(0, 0, 3)
        left.merge(job.run_block(0, 3, 8))
        assert whole.finalize().same_values(left.finalize())

    def test_job_pickles(self):
        job = self._job()
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.run_block(0, 0, 2).finalize().same_values(
            job.run_block(0, 0, 2).finalize()
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            self._job(reps=0)
        with pytest.raises(ParameterError):
            TasksetCellJob(
                params=WorkloadParams(pattern="light"), horizon=0.0
            )

    @pytest.mark.parametrize(
        "reps, seed", [(2.5, 17), (True, 17), (8, 2.5), (8, True), (8, -1)]
    )
    def test_non_integer_reps_and_seed_rejected(self, reps, seed):
        with pytest.raises(ParameterError, match="reps|seed"):
            TasksetCellJob(
                params=WorkloadParams(pattern="light"),
                horizon=4000.0,
                reps=reps,
                seed=seed,
            )


# ---------------------------------------------------------------------------
# StudySpec: new kinds, pinned hashes, round trips


class TestStudyKinds:
    def test_kind_registry_is_consistent(self):
        assert set(KIND_SUMMARIES) == set(STUDY_KINDS)
        assert "taskset" in STUDY_KINDS and "frontier" in STUDY_KINDS

    @pytest.mark.parametrize("name", sorted(PINNED_SPEC_HASHES))
    def test_pinned_spec_hashes(self, name):
        assert _pinned_specs()[name].spec_hash == PINNED_SPEC_HASHES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_SPEC_HASHES))
    def test_json_round_trip_preserves_hash(self, name):
        spec = _pinned_specs()[name]
        again = StudySpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert again.spec_hash == spec.spec_hash

    def test_defaults_are_elided(self):
        payload = StudySpec(kind="taskset", table="1a").to_dict()
        # Axis defaults are materialised (they define the study); the
        # execution defaults that predate the kind must stay elided so
        # pre-existing kinds' hashes cannot move.
        assert "kernel" not in payload
        assert "fast_static" not in payload

    def test_stray_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="taskset", table="1a", ms=(1, 2))
        with pytest.raises(ConfigurationError):
            StudySpec(kind="frontier", table="1a", patterns=("light",))

    def test_fast_paths_rejected_for_workload_kinds(self):
        with pytest.raises(ConfigurationError):
            StudySpec(kind="taskset", table="1a", kernel="fast")
        with pytest.raises(ConfigurationError):
            StudySpec(kind="taskset", table="1a", fast_static=True)
        with pytest.raises(ConfigurationError):
            StudySpec(kind="frontier", table="1a", fast_static=True)

    def test_unknown_kind_error_names_every_kind(self):
        with pytest.raises(ConfigurationError) as err:
            StudySpec(kind="mystery", table="1a")
        for kind in STUDY_KINDS:
            assert kind in str(err.value)


class TestCellEnumeration:
    def test_taskset_cells_have_distinct_identities(self):
        plans = Study(SMALL_TASKSET_SPEC).cells()
        identities = [cell_identity(p.job, block_size=64) for p in plans]
        assert all(identities)
        assert len(set(identities)) == len(identities)

    def test_frontier_cells_have_distinct_identities(self):
        plans = Study(SMALL_FRONTIER_SPEC).cells()
        identities = [cell_identity(p.job, block_size=64) for p in plans]
        assert all(identities)
        assert len(set(identities)) == len(identities)

    def test_taskset_cells_fork_per_workload(self):
        plans = Study(SMALL_TASKSET_SPEC).cells()
        assert len({p.job.seed for p in plans}) == len(plans)

    def test_frontier_cells_share_the_study_seed(self):
        # Common random numbers: configuration differences are policy
        # effects, not sampling noise.
        plans = Study(SMALL_FRONTIER_SPEC).cells()
        assert {p.job.seed for p in plans} == {SMALL_FRONTIER_SPEC.seed}

    def test_axis_columns_reach_the_csv(self, tmp_path):
        results = Study(SMALL_TASKSET_SPEC).run()
        path = tmp_path / "t.csv"
        results.save_csv(str(path))
        header = path.read_text().splitlines()[0]
        for column in ("pattern", "u", "lam"):
            assert column in header.split(",")


class TestBackendBitIdentity:
    @pytest.mark.parametrize("spec", [SMALL_TASKSET_SPEC, SMALL_FRONTIER_SPEC],
                             ids=["taskset", "frontier"])
    def test_serial_vs_process(self, spec):
        serial = Study(spec).run()
        with Session(backend="process", workers=2) as session:
            parallel = Study(spec).run(session)
        assert parallel.same_values(serial)


# ---------------------------------------------------------------------------
# Pareto frontier


class TestEquidistantPolicy:
    def test_partial_factory_pickles(self):
        factory = partial(EquidistantPolicy, 2.0, 4)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone.func is EquidistantPolicy
        assert clone.args == (2.0, 4)

    def test_policy_names_its_shape(self):
        policy = EquidistantPolicy(2.0, 4)
        assert "4" in policy.name and "2" in policy.name

    def test_checkpoint_count_validated(self):
        with pytest.raises(ParameterError):
            EquidistantPolicy(1.0, 0)


class TestParetoFrontier:
    def test_dominated_points_are_flagged(self):
        points = pareto_points([
            (1.0, 1, 1.0, 10.0, 10.0),
            (1.0, 2, 1.0, 12.0, 12.0),   # dominated by the first
            (2.0, 1, 1.0, 5.0, 20.0),    # faster, costlier: frontier
        ])
        flags = {(p.frequency, p.checkpoints): p.on_frontier for p in points}
        assert flags[(1.0, 1)] and flags[(2.0, 1)]
        assert not flags[(1.0, 2)]

    def test_p_min_excludes_unreliable_points(self):
        points = pareto_points([
            (1.0, 1, 0.2, 1.0, 1.0),     # would dominate everything
            (2.0, 1, 0.99, 5.0, 5.0),
        ], p_min=0.9)
        flags = {p.frequency: p.on_frontier for p in points}
        assert not flags[1.0] and flags[2.0]

    def test_deadline_and_budget_filters(self):
        cells = [(1.0, 1, 1.0, 10.0, 10.0), (2.0, 1, 1.0, 4.0, 30.0)]
        by_deadline = {
            p.frequency: p.on_frontier
            for p in pareto_points(cells, deadline=5.0)
        }
        assert by_deadline == {1.0: False, 2.0: True}
        by_budget = {
            p.frequency: p.on_frontier
            for p in pareto_points(cells, energy_budget=15.0)
        }
        assert by_budget == {1.0: True, 2.0: False}

    def test_nan_points_never_reach_the_frontier(self):
        points = pareto_points([
            (1.0, 1, 0.0, math.nan, math.nan),
            (2.0, 1, 1.0, 5.0, 5.0),
        ])
        flags = {p.frequency: p.on_frontier for p in points}
        assert not flags[1.0] and flags[2.0]

    def test_render_footer_counts(self):
        text = render_frontier(pareto_points([
            (1.0, 1, 1.0, 10.0, 10.0),
            (1.0, 2, 1.0, 12.0, 12.0),
        ]))
        assert text.strip().endswith("frontier: 1 of 2 configurations")


# ---------------------------------------------------------------------------
# cache pruning


def _fill_cache(tmp_path, spec):
    cache_dir = str(tmp_path / "cells")
    service = StudyService(cache_dir=cache_dir)
    try:
        service.submit(json.loads(spec.to_json()))
    finally:
        service.close()
    return cache_dir


class TestCachePrune:
    def test_hits_survive_pruning_of_cold_entries(self, tmp_path):
        cache_dir = _fill_cache(tmp_path, SMALL_TASKSET_SPEC)
        cache = CellCache(cache_dir, memory=False)
        entries = cache._entries()
        assert len(entries) == 2
        # Make one entry cold, then prune to a size only one fits in.
        cold_identity, cold_path, _, _ = entries[0]
        hot_identity = entries[1][0]
        past = time.time() - 3600.0
        os.utime(cold_path, (past, past))
        report = cache.prune(max_bytes=entries[1][2])
        assert report.removed == (cold_identity,)
        assert cache.get(hot_identity) is not None  # the hit survived
        assert cache.get(cold_identity) is None

    def test_dry_run_removes_nothing(self, tmp_path):
        cache_dir = _fill_cache(tmp_path, SMALL_TASKSET_SPEC)
        cache = CellCache(cache_dir, memory=False)
        report = cache.prune(max_bytes=0, dry_run=True)
        assert report.dry_run and len(report.removed) == 2
        assert len(cache) == 2
        assert "would remove" in report.render()

    def test_age_prune(self, tmp_path):
        cache_dir = _fill_cache(tmp_path, SMALL_TASKSET_SPEC)
        cache = CellCache(cache_dir, memory=False)
        entries = cache._entries()
        past = time.time() - 10 * 86_400.0
        os.utime(entries[0][1], (past, past))
        report = cache.prune(max_age_seconds=86_400.0)
        assert report.removed == (entries[0][0],)
        assert len(cache) == 1

    def test_pruned_entry_recomputes_on_resubmission(self, tmp_path):
        cache_dir = _fill_cache(tmp_path, SMALL_TASKSET_SPEC)
        CellCache(cache_dir, memory=False).prune(max_bytes=0)
        service = StudyService(cache_dir=cache_dir)
        try:
            envelope = service.submit(
                json.loads(SMALL_TASKSET_SPEC.to_json())
            )
        finally:
            service.close()
        assert envelope["computed"] == envelope["cells"]


# ---------------------------------------------------------------------------
# the committed golden


class TestTasksetGolden:
    def test_committed_golden_replays_clean(self):
        assert GOLDEN_PATH.exists()
        report = replay(str(GOLDEN_PATH))
        assert report.ok, report.render()
        assert report.events_matched == report.events_total == 22

    def test_rerecording_is_byte_identical_modulo_git(self, tmp_path):
        fresh = tmp_path / "fresh.jsonl"
        record_taskset_golden(str(fresh))
        committed = GOLDEN_PATH.read_text().splitlines()
        recorded = fresh.read_text().splitlines()
        assert committed[1:] == recorded[1:]  # events + sentinel
        a, b = json_loads_exact(committed[0]), json_loads_exact(recorded[0])
        a.pop("git"), b.pop("git")
        assert json_dumps_exact(a) == json_dumps_exact(b)

    def test_tampered_event_is_localised(self, tmp_path):
        lines = GOLDEN_PATH.read_text().splitlines()
        event = json_loads_exact(lines[3])  # events start at line 2
        event["faults"] = event["faults"] + 1
        lines[3] = json_dumps_exact(event)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        report = replay(str(tampered))
        drift = report.divergence
        assert drift is not None
        assert drift.index == 2
        assert drift.kind == "job"
        assert drift.reason == "mismatch"
        assert [name for name, _, _ in drift.field_diffs()] == ["faults"]
        assert "DRIFT at event 2 (job, mismatch)" in report.render()

    def test_tampered_selection_is_reported_before_event_0(self, tmp_path):
        lines = GOLDEN_PATH.read_text().splitlines()
        header = json_loads_exact(lines[0])
        header["selection"]["frequency"] = 2.0
        lines[0] = json_dumps_exact(header)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        report = replay(str(tampered))
        drift = report.divergence
        assert drift is not None
        assert (drift.index, drift.kind, drift.reason) == (-1, "selection", "header")
        assert [name for name, _, _ in drift.field_diffs()] == ["frequency"]
        assert "DRIFT in the header (selection) before event 0" in report.render()

    def test_truncated_golden_rejected(self, tmp_path):
        lines = GOLDEN_PATH.read_text().splitlines()[:-1]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="truncated"):
            replay(str(broken))


# ---------------------------------------------------------------------------
# service resubmission: byte-identical taskset payloads


class TestServiceTaskset:
    def test_resubmission_hits_and_is_byte_identical(self, tmp_path):
        service = StudyService(cache_dir=str(tmp_path / "cells"))
        try:
            payload = json.loads(SMALL_FRONTIER_SPEC.to_json())
            first = service.submit(payload)
            second = service.submit(payload)
        finally:
            service.close()
        assert first["computed"] == first["cells"] > 0
        assert second["computed"] == 0
        assert second["cached"] == second["cells"]
        assert json_dumps_exact(first["result"]) == json_dumps_exact(
            second["result"]
        )
        local = Study(SMALL_FRONTIER_SPEC).run()
        assert ResultSet.from_dict(first["result"]).same_values(local)


# ---------------------------------------------------------------------------
# CLI surface


class TestWorkloadCLI:
    def test_list_kinds_names_every_kind(self, capsys):
        assert main(["run", "--list-kinds"]) == 0
        out = capsys.readouterr().out
        for kind in STUDY_KINDS:
            assert kind in out
            assert KIND_SUMMARIES[kind] in out

    def test_run_help_derives_kinds_from_the_registry(self):
        parser = build_parser()
        run_parser = parser._subparsers._group_actions[0].choices["run"]
        text = run_parser.format_help()
        for kind in STUDY_KINDS:
            assert kind in text

    def test_run_without_spec_errors(self, capsys):
        assert main(["run"]) == 2
        assert "spec path" in capsys.readouterr().err

    def test_frontier_run_renders_the_frontier(self, tmp_path, capsys):
        spec_path = tmp_path / "f.spec.json"
        spec_path.write_text(SMALL_FRONTIER_SPEC.to_json())
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "frontier:" in out
        assert "of 4 configurations" in out

    def test_cache_prune_cli(self, tmp_path, capsys):
        cache_dir = _fill_cache(tmp_path, SMALL_TASKSET_SPEC)
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "2 entries" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache", cache_dir,
                     "--max-bytes", "0", "--dry-run"]) == 0
        assert "would remove 2" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache", cache_dir,
                     "--max-bytes", "0"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert len(CellCache(cache_dir, memory=False)) == 0

    def test_cache_prune_requires_a_limit(self, tmp_path, capsys):
        assert main(["cache", "prune",
                     "--cache", str(tmp_path / "c")]) == 2
        assert "--max-bytes" in capsys.readouterr().err
