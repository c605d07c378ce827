"""Kernel-mode provenance: every estimate knows which engine made it.

Exact and fast estimates follow different determinism contracts, so
they must never silently mix: ``CellRecord`` stamps the kernel into
its provenance (back-compat: pre-kernel files load as ``"exact"``),
``ResultSet`` enforces kernel homogeneity at construction and refuses
cross-kernel merges, ``Study`` refuses to resume an exact result set
in fast mode (and vice versa), and ``StudySpec`` hashes ``kernel``
into the spec hash — while eliding the default so every pre-kernel
spec hash is unchanged.

Also covered here (same execution-configuration seam):
``ExecutionSettings.workers=0`` is the documented one-per-CPU
convention and must keep building a pool of at least one process,
plus the ``--kernel`` CLI flag and the ``record-golden`` diff
reporting.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.api import ResultSet, Session, Study, StudySpec
from repro.api.results import CellRecord
from repro.errors import ConfigurationError, ParameterError
from repro.experiments.config import ExecutionSettings, table_spec


def _small_spec(kernel="exact", seed=5):
    return StudySpec(
        kind="fixed_m",
        table="1a",
        reps=16,
        seed=seed,
        ms=(1, 2),
        kernel=kernel,
    )


@pytest.fixture(scope="module")
def exact_results():
    with Session() as session:
        return Study(_small_spec()).run(session)


@pytest.fixture(scope="module")
def fast_results():
    with Session() as session:
        return Study(_small_spec(kernel="fast")).run(session)


# ---------------------------------------------------------------------------
# CellRecord provenance


def test_records_carry_their_kernel(exact_results, fast_results):
    assert all(r.kernel == "exact" for r in exact_results)
    assert all(r.kernel == "fast" for r in fast_results)
    assert exact_results.kernel == "exact"
    assert fast_results.kernel == "fast"


def test_kernel_round_trips_through_json(fast_results):
    reloaded = ResultSet.from_json(fast_results.to_json())
    assert reloaded.kernel == "fast"
    assert all(r.kernel == "fast" for r in reloaded)
    assert reloaded.same_values(fast_results)


def test_pre_kernel_files_load_as_exact(exact_results):
    payload = exact_results.to_dict()
    for item in payload["records"]:
        # Simulate a file written before the kernel field existed.
        del item["provenance"]["kernel"]
    reloaded = ResultSet.from_dict(payload)
    assert reloaded.kernel == "exact"


def test_result_set_rejects_mixed_kernels(exact_results):
    records = exact_results.records
    mixed = records[:1] + [
        dataclasses.replace(records[1], kernel="fast")
    ]
    with pytest.raises(ConfigurationError, match="fast"):
        ResultSet(exact_results.spec_hash, mixed)


def test_merge_rejects_cross_kernel_partials(exact_results):
    keys = exact_results.keys()
    half_a = ResultSet(
        exact_results.spec_hash,
        [exact_results.record(keys[0])],
    )
    half_b_fast = ResultSet(
        exact_results.spec_hash,
        [
            dataclasses.replace(
                exact_results.record(key), kernel="fast"
            )
            for key in keys[1:]
        ],
    )
    with pytest.raises(ConfigurationError, match="kernel"):
        half_a.merge(half_b_fast)


def test_merge_of_same_kernel_partials_still_works(fast_results):
    keys = fast_results.keys()
    half_a = ResultSet(
        fast_results.spec_hash, [fast_results.record(keys[0])]
    )
    half_b = ResultSet(
        fast_results.spec_hash,
        [fast_results.record(key) for key in keys[1:]],
    )
    merged = half_a.merge(half_b)
    assert len(merged) == len(fast_results)
    assert merged.kernel == "fast"


# ---------------------------------------------------------------------------
# StudySpec hashing


def test_exact_kernel_is_elided_from_spec_hash():
    exact = _small_spec()
    assert "kernel" not in exact.to_dict()
    # The default must hash identically to a spec written before the
    # field existed — resume files from old trees keep working.
    assert exact.spec_hash == StudySpec(
        kind="fixed_m", table="1a", reps=16, seed=5, ms=(1, 2)
    ).spec_hash


def test_fast_kernel_changes_the_spec_hash():
    exact, fast = _small_spec(), _small_spec(kernel="fast")
    assert fast.to_dict()["kernel"] == "fast"
    assert fast.spec_hash != exact.spec_hash


def test_spec_rejects_unknown_kernel():
    with pytest.raises(ConfigurationError, match="kernel"):
        _small_spec(kernel="turbo")


# ---------------------------------------------------------------------------
# resume refuses to extend across kernels


def test_resume_refuses_exact_set_in_fast_mode(exact_results):
    spec = _small_spec()
    forged = ResultSet(
        spec.spec_hash,
        [
            dataclasses.replace(record, spec_hash=spec.spec_hash)
            for record in list(exact_results)[:1]
        ],
    )
    with Session(kernel="fast") as session:
        with pytest.raises(ConfigurationError, match="resume"):
            Study(spec).run(session, resume=forged)


def test_resume_refuses_fast_set_in_exact_mode(fast_results):
    # Forge a partial carrying the *exact* spec's hash but fast-kernel
    # records — the shape a user gets by renaming files around.
    spec = _small_spec()
    forged = ResultSet(
        spec.spec_hash,
        [
            dataclasses.replace(record, spec_hash=spec.spec_hash)
            for record in list(fast_results)[:1]
        ],
    )
    with Session() as session:
        with pytest.raises(ConfigurationError, match="resume"):
            Study(spec).run(session, resume=forged)


def test_fast_resume_in_fast_mode_computes_only_missing(fast_results):
    spec = _small_spec(kernel="fast")
    partial = ResultSet(
        fast_results.spec_hash,
        [fast_results.record(fast_results.keys()[0])],
        spec=fast_results.spec,
    )
    with Session() as session:
        completed = Study(spec).run(session, resume=partial)
    assert completed.same_values(fast_results)
    assert completed.kernel == "fast"


def test_session_kernel_opts_exact_specs_into_fast():
    spec = _small_spec()  # exact spec
    with Session(kernel="fast") as session:
        assert session.kernel == "fast"
        results = Study(spec).run(session)
    assert results.kernel == "fast"


# ---------------------------------------------------------------------------
# execution-configuration validation


def test_execution_settings_validates_kernel():
    assert ExecutionSettings().kernel == "exact"
    assert ExecutionSettings(kernel="fast").kernel == "fast"
    with pytest.raises(ConfigurationError, match="kernel"):
        ExecutionSettings(kernel="warp")


def test_cell_job_validates_kernel():
    spec = table_spec("1a")
    job = spec.cell_job(0.76, 1.4e-3, "A_D", reps=8, seed=1)
    assert job.kernel == "exact"
    assert dataclasses.replace(job, kernel="fast").kernel == "fast"
    with pytest.raises(ParameterError, match="kernel"):
        dataclasses.replace(job, kernel="warp")


def test_execution_settings_workers_zero_still_means_one_per_cpu():
    # The *settings* layer documents workers=0 as one-per-CPU; it must
    # keep translating that convention into a pool size of at least 1.
    settings = ExecutionSettings(backend="process", workers=0)
    runner = settings.make_runner()
    try:
        assert runner is not None
        assert runner.backend.name == "process"
        assert runner.backend.workers >= 1
    finally:
        runner.close()


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_parses_kernel_flag():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["table", "1a", "--kernel", "fast"])
    assert args.kernel == "fast"
    assert ExecutionSettings.from_cli_args(args).kernel == "fast"
    args = parser.parse_args(["table", "1a"])
    assert ExecutionSettings.from_cli_args(args).kernel == "exact"
    with pytest.raises(SystemExit):
        parser.parse_args(["table", "1a", "--kernel", "warp"])


def test_update_goldens_reports_event_level_diffs(tmp_path):
    import json

    from repro.goldens import update_goldens

    name = "adaptive-scp-poisson"
    directory = str(tmp_path)
    update_goldens(directory, names=[name])
    path = os.path.join(directory, f"{name}.jsonl")

    # Unchanged tree: the re-record is bit-identical.
    (update,) = update_goldens(directory, names=[name])
    assert update.identical
    assert "bit-identical" in update.render()

    # Perturb one recorded event; the next update must localise it.
    lines = open(path, encoding="utf-8").read().splitlines()
    event = json.loads(lines[5])
    assert event["kind"] == "segment"
    event["end"] = 123456.789
    lines[5] = json.dumps(event)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    (update,) = update_goldens(directory, names=[name])
    assert not update.identical
    assert update.changed_total == 1
    index, kind, diffs = update.changed[0]
    assert index == 4  # event 4: line 5 minus the header line
    assert diffs  # field-level old -> new pairs
    rendered = update.render()
    assert "CHANGED" in rendered and "123456.789" in rendered

    # And the rewritten file is clean again.
    (final,) = update_goldens(directory, names=[name])
    assert final.identical
