"""The fast kernel's contract, pinned from both sides.

Exact side: under *scripted* (deterministic) faults the vectorised
engine must reproduce the exact executor's semantics — identical
counters, energies equal to float tolerance — for every scenario of
the golden matrix, with the replan table at ``resolution=0`` (no
quantisation).  Fallback scenarios (static policies, non-zero rollback
cost, fault processes without block pre-draws) must produce
*bit-identical* estimates, because they run the exact engine per block.

Statistical side: under stochastic faults the fast kernel draws
different (equally valid) streams, so the contract is equivalence, not
identity — the 99 % confidence intervals of exact and fast estimates
must overlap for every scheme × fault-process pair of the golden
matrix that the kernel runs.

Determinism side: fast mode is *block-deterministic* — for a fixed
(seed, block size), every backend and worker count produces identical
estimates.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.api.plans import table_cells
from repro.core.checkpoints import CheckpointKind, CostModel
from repro.core.schemes import AdaptiveSCPPolicy, _AdaptiveBase
from repro.errors import ParameterError
from repro.experiments.config import all_table_specs, table_spec
from repro.goldens.scenarios import GOLDEN_SCENARIOS
from repro.sim.backends import ProcessBackend, SerialBackend
from repro.sim.faults import BurstyFaults, PoissonFaults, ScriptedFaults
from repro.sim.kernel import (
    KERNEL_NAMES,
    ReplanTable,
    accumulate_range_fast,
    kernel_supported,
    replan_table_for,
)
from repro.sim.montecarlo import accumulate_range
from repro.sim.parallel import BatchRunner
from repro.sim.task import TaskSpec

#: Fault times as deadline fractions, chosen away from typical window
#: boundaries so float association differences cannot flip a
#: classification between the scalar and vectorised engines.
_SCRIPT_FRACTIONS = (
    0.0731, 0.1917, 0.2203, 0.3541, 0.4483,
    0.5659, 0.6211, 0.7907, 0.8677, 0.9341,
)

_REPS = 3


def _scripted(scen):
    return ScriptedFaults(
        tuple(f * scen.task.deadline for f in _SCRIPT_FRACTIONS)
    )


def _close(a, b, rel=1e-9):
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _run_both(scen, faults, *, fdo):
    factory = scen.build_policy
    exact = accumulate_range(
        scen.task,
        factory,
        start=0,
        stop=_REPS,
        seed=scen.seed,
        faults=faults,
        faults_during_overhead=fdo,
    ).finalize()
    fast = accumulate_range_fast(
        scen.task,
        factory,
        start=0,
        stop=_REPS,
        seed=scen.seed,
        faults=faults,
        faults_during_overhead=fdo,
        resolution=0,
    ).finalize()
    return exact, fast


@pytest.mark.parametrize(
    "scen", GOLDEN_SCENARIOS, ids=lambda s: s.name
)
@pytest.mark.parametrize("fdo", [False, True], ids=["fdo-off", "fdo-on"])
def test_scripted_conformance_matches_exact_engine(scen, fdo):
    """Deterministic faults: fast (resolution=0) == exact, per scenario."""
    exact, fast = _run_both(scen, _scripted(scen), fdo=fdo)
    # Integer-derived statistics must agree exactly.
    assert fast.p_timely.trials == exact.p_timely.trials
    assert fast.p == exact.p
    assert fast.mean_detected_faults == exact.mean_detected_faults
    assert fast.mean_checkpoints == exact.mean_checkpoints
    assert fast.mean_sub_checkpoints == exact.mean_sub_checkpoints
    # Float accumulations may associate differently: tolerance 1e-9.
    assert _close(fast.energy_all.value, exact.energy_all.value)
    assert _close(fast.e, exact.e)
    assert _close(
        fast.mean_finish_time_timely, exact.mean_finish_time_timely
    )


class _CscpSubdividedPolicy(_AdaptiveBase):
    """An adaptive plan with three interior CSCPs (no in-repo scheme
    plans interior CSCPs)."""

    name = "adaptive-cscp-m4"

    def _subdivide(self, state, interval):
        return 4

    def _sub_kind(self):
        return CheckpointKind.CSCP


def test_interior_cscp_detection_keeps_verified_work():
    """A fault in the last sub-interval is detected at the closing
    CSCP; the three clean interior CSCPs stored 75 cycles, so only 25
    are retried: finish 188 + 113 = 301 in both kernels.  With no fault
    budget the interval procedure plans the whole task as one interval
    (``sqrt(2C/λ)`` > 100 cycles), before and after the fault."""
    task = TaskSpec(
        cycles=100.0,
        deadline=10_000.0,
        fault_budget=0,
        fault_rate=1e-3,
        costs=CostModel.scp_favourable(),
    )
    faults = ScriptedFaults([150.0])
    assert kernel_supported(task, _CscpSubdividedPolicy(), faults)
    exact = accumulate_range(
        task, _CscpSubdividedPolicy, start=0, stop=_REPS, faults=faults
    ).finalize()
    fast = accumulate_range_fast(
        task, _CscpSubdividedPolicy, start=0, stop=_REPS, faults=faults,
        resolution=0,
    ).finalize()
    assert exact.mean_finish_time_timely == pytest.approx(301.0)
    assert fast.mean_finish_time_timely == pytest.approx(301.0)
    assert fast.p == exact.p == 1.0
    assert fast.mean_detected_faults == exact.mean_detected_faults == 1.0
    assert fast.mean_checkpoints == exact.mean_checkpoints
    assert fast.mean_sub_checkpoints == exact.mean_sub_checkpoints
    assert _close(fast.energy_all.value, exact.energy_all.value)


# ---------------------------------------------------------------------------
# fallback scenarios run the exact engine — bit-identical


def _fallback_task(**cost_overrides):
    costs = CostModel(**cost_overrides) if cost_overrides else CostModel()
    return TaskSpec(
        cycles=8_000.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=costs,
    )


def test_rollback_cost_falls_back_to_exact_bit_identically():
    task = _fallback_task(rollback_cycles=5.0)
    assert not kernel_supported(task, AdaptiveSCPPolicy(), PoissonFaults(task.fault_rate))
    exact = accumulate_range(
        task, AdaptiveSCPPolicy, start=0, stop=32, seed=7
    ).finalize()
    fast = accumulate_range_fast(
        task, AdaptiveSCPPolicy, start=0, stop=32, seed=7
    ).finalize()
    assert fast.same_values(exact)


def test_bursty_faults_fall_back_to_exact_bit_identically():
    task = _fallback_task()
    faults = BurstyFaults(
        quiet_rate=2e-4, burst_rate=8e-3, quiet_dwell=4_000.0, burst_dwell=400.0
    )
    assert not kernel_supported(task, AdaptiveSCPPolicy(), faults)
    exact = accumulate_range(
        task, AdaptiveSCPPolicy, start=0, stop=32, seed=7, faults=faults
    ).finalize()
    fast = accumulate_range_fast(
        task, AdaptiveSCPPolicy, start=0, stop=32, seed=7, faults=faults
    ).finalize()
    assert fast.same_values(exact)


@pytest.mark.parametrize(
    "scen",
    [
        s
        for s in GOLDEN_SCENARIOS
        if not kernel_supported(s.task, s.build_policy(), s.faults)
    ],
    ids=lambda s: s.name,
)
def test_out_of_scope_golden_scenarios_fall_back_bit_identically(scen):
    """The static scenarios, bursty faults and the rollback cost."""
    kwargs = dict(
        start=0,
        stop=64,
        seed=scen.seed,
        faults=scen.faults,
        faults_during_overhead=scen.faults_during_overhead,
    )
    exact = accumulate_range(scen.task, scen.build_policy, **kwargs)
    fast = accumulate_range_fast(scen.task, scen.build_policy, **kwargs)
    assert fast.finalize().same_values(exact.finalize())


def test_kernel_runs_the_adaptive_table_cells_and_no_static_one():
    for spec in all_table_specs():
        for plan in table_cells(spec, reps=8, seed=1):
            job = plan.job
            faults = job.faults or PoissonFaults(job.task.fault_rate)
            adaptive = dict(plan.axes)["scheme"] not in ("Poisson", "k-f-t")
            assert kernel_supported(
                job.task, job.policy_factory(), faults
            ) == adaptive, (spec.table_id, plan.key)


def test_fast_table_study_runs_static_cells_exactly(monkeypatch):
    """A ``kernel="fast"`` table study: its Poisson and k-f-t records
    are exact mode's bit for bit, and every adaptive cell's block ran
    through the vectorised engine."""
    from repro.api import Session, Study, StudySpec
    from repro.sim import kernel as kernel_mod

    vectorised = []
    run_block = kernel_mod._run_block

    def counting_run_block(*args):
        vectorised.append(args[6].name)  # the block's policy
        return run_block(*args)

    monkeypatch.setattr(kernel_mod, "_run_block", counting_run_block)
    spec = StudySpec(kind="table", table="3a", reps=64, seed=5)
    with Session() as session:
        exact = Study(spec).run(session)
        fast = Study(dataclasses.replace(spec, kernel="fast")).run(session)
    assert fast.kernel == "fast"
    adaptive = []
    for key in exact.keys():
        scheme = exact.record(key).axes["scheme"]
        if scheme in ("Poisson", "k-f-t"):
            assert fast.estimate(key).same_values(exact.estimate(key)), key
        else:
            adaptive.append(scheme)
    # One 64-rep block per cell: every adaptive cell, no static one.
    assert sorted(vectorised) == sorted(adaptive)
    assert {"A_D", "A_D_C"} <= set(adaptive)


# ---------------------------------------------------------------------------
# block determinism: same (seed, chunk size) => same estimates anywhere


def test_fast_mode_is_block_deterministic_across_backends():
    spec = table_spec("1a")
    job = dataclasses.replace(
        spec.cell_job(0.80, 1.4e-3, "A_D_S", reps=512, seed=11),
        kernel="fast",
    )
    serial_backend = SerialBackend()
    serial = BatchRunner(backend=serial_backend, chunk_size=128).run_cells(
        [job]
    )[0]
    process_backend = ProcessBackend(2)
    try:
        sharded = BatchRunner(
            backend=process_backend, chunk_size=128
        ).run_cells([job])[0]
    finally:
        process_backend.close()
    assert sharded.same_values(serial)


def test_fast_mode_repeats_itself_in_process():
    spec = table_spec("1a")
    job = dataclasses.replace(
        spec.cell_job(0.78, 1.6e-3, "A_D", reps=256, seed=3), kernel="fast"
    )
    first = job.run_block(0, 0, 256).finalize()
    second = job.run_block(0, 0, 256).finalize()
    assert first.same_values(second)


# ---------------------------------------------------------------------------
# statistical equivalence: 99% CI overlap per scheme x fault process


def _intervals_overlap(low_a, high_a, low_b, high_b, pad):
    if any(math.isnan(v) for v in (low_a, high_a, low_b, high_b)):
        # NaN bounds mean no timely runs on that side; equivalence then
        # requires both sides to be empty, checked by the caller.
        return False
    return (low_a - pad) <= high_b and (low_b - pad) <= high_a


_EQUIV_REPS = 400


@pytest.mark.parametrize(
    "scen",
    [
        s
        for s in GOLDEN_SCENARIOS
        if kernel_supported(s.task, s.build_policy(), s.faults)
        # Scripted faults are deterministic: every rep is identical, the
        # CIs are zero-width, and replan quantisation legitimately moves
        # the point value.  The scripted contract is the *exact*
        # conformance test above (resolution=0), not CI overlap.
        and not isinstance(s.faults, ScriptedFaults)
    ],
    ids=lambda s: s.name,
)
def test_statistical_equivalence_99ci_overlap(scen):
    """Exact and fast 99% CIs overlap for timeliness and energy."""
    factory = scen.build_policy
    exact = accumulate_range(
        scen.task,
        factory,
        start=0,
        stop=_EQUIV_REPS,
        seed=scen.seed,
        faults=scen.faults,
        faults_during_overhead=scen.faults_during_overhead,
    )
    fast = accumulate_range_fast(
        scen.task,
        factory,
        start=0,
        stop=_EQUIV_REPS,
        seed=scen.seed,
        faults=scen.faults,
        faults_during_overhead=scen.faults_during_overhead,
    )
    p_exact = exact.timely.estimate(0.99)
    p_fast = fast.timely.estimate(0.99)
    assert _intervals_overlap(
        p_exact.low, p_exact.high, p_fast.low, p_fast.high, pad=1e-9
    ), f"p_timely CIs disjoint: {p_exact} vs {p_fast}"
    e_exact = exact.energy_all.estimate(0.99)
    e_fast = fast.energy_all.estimate(0.99)
    pad = 1e-6 * max(abs(e_exact.value), abs(e_fast.value), 1.0)
    assert _intervals_overlap(
        e_exact.low, e_exact.high, e_fast.low, e_fast.high, pad=pad
    ), f"energy_all CIs disjoint: {e_exact} vs {e_fast}"
    # Timely-conditional energy: compare only when both sides have
    # timely runs (an empty side makes the mean NaN by convention).
    if exact.energy_timely.count and fast.energy_timely.count:
        t_exact = exact.energy_timely.estimate(0.99)
        t_fast = fast.energy_timely.estimate(0.99)
        pad = 1e-6 * max(abs(t_exact.value), abs(t_fast.value), 1.0)
        assert _intervals_overlap(
            t_exact.low, t_exact.high, t_fast.low, t_fast.high, pad=pad
        ), f"energy_timely CIs disjoint: {t_exact} vs {t_fast}"


# ---------------------------------------------------------------------------
# the replan table


def _table(resolution):
    task = _fallback_task()
    return ReplanTable(AdaptiveSCPPolicy(), task, resolution=resolution), task


def test_replan_table_resolution_zero_is_exact():
    table, task = _table(0)
    exact_table, _ = _table(0)
    for rc, dl, fl in [(5000.0, 7000.0, 3.0), (123.4, 9999.0, 1.0)]:
        assert table.lookup(rc, dl, fl) == exact_table.lookup(rc, dl, fl)
    assert table.entries == 0  # resolution 0 never memoises


def test_replan_table_off_table_states_evaluate_exactly():
    table, task = _table(64)
    exact, _ = _table(0)
    # Beyond the task's own cycle/deadline ranges -> no bucketing.
    for rc, dl, fl in [
        (task.cycles * 2.0, 5000.0, 2.0),
        (5000.0, task.deadline * 3.0, 2.0),
        (5000.0, -1.0, 2.0),
    ]:
        assert table.lookup(rc, dl, fl) == exact.lookup(rc, dl, fl)


def test_replan_table_is_fill_order_independent():
    queries = [
        (6000.0, 8000.0, 4.0),
        (6001.0, 8001.0, 4.0),  # same bucket as above at res=64
        (100.0, 300.0, 1.0),
        (7900.0, 9900.0, 5.0),
    ]
    forward, _ = _table(64)
    backward, _ = _table(64)
    a = [forward.lookup(*q) for q in queries]
    b = list(reversed([backward.lookup(*q) for q in reversed(queries)]))
    assert a == b


def test_replan_table_for_returns_one_shared_table_across_threads():
    """Concurrent registry lookups must converge on ONE table per key —
    the cross-block sharing the registry exists for."""
    import threading

    from repro.sim import kernel as kernel_mod

    task = _fallback_task()
    kernel_mod._REPLAN_TABLES.clear()
    tables = [None] * 16
    barrier = threading.Barrier(8)

    def grab(i):
        barrier.wait()
        tables[i] = replan_table_for(AdaptiveSCPPolicy(), task)
        barrier.wait()
        tables[8 + i] = replan_table_for(AdaptiveSCPPolicy(), task)

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(t is tables[0] for t in tables)


def test_replan_table_concurrent_lookups_are_fill_order_independent():
    """Stress one shared table from many threads: every thread's rows
    must equal a serially-filled table's, regardless of which thread
    won each bucket's first evaluation.  Guards the ``_eval`` lock —
    unlocked, concurrent evaluations corrupt the shared mutable
    ExecutionState and produce rows from a *mixture* of queries."""
    import threading

    import numpy as np

    table, task = _table(64)
    reference, _ = _table(64)
    rng = np.random.default_rng(17)
    n = 300
    rc = rng.uniform(1.0, task.cycles, size=n)
    dl = rng.uniform(1.0, task.deadline, size=n)
    fl = rng.integers(1, 6, size=n).astype(float)
    queries = list(zip(rc.tolist(), dl.tolist(), fl.tolist()))
    expected = [reference.lookup(*q) for q in queries]

    n_threads = 8
    results = [None] * n_threads
    errors = []
    barrier = threading.Barrier(n_threads)

    def hammer(i):
        # Each thread walks the queries from a different offset, so
        # threads race to fill different buckets first.
        order = queries[i * 37 % n:] + queries[: i * 37 % n]
        index = {id(q): pos for pos, q in enumerate(queries)}
        barrier.wait()
        try:
            rows = [None] * n
            for q in order:
                rows[index[id(q)]] = table.lookup(*q)
            results[i] = rows
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for rows in results:
        assert rows == expected


# ---------------------------------------------------------------------------
# dispatch plumbing


def test_accumulate_range_kernel_names():
    assert KERNEL_NAMES == ("exact", "fast")
    task = _fallback_task()
    with pytest.raises(ParameterError):
        accumulate_range(
            task, AdaptiveSCPPolicy, start=0, stop=4, kernel="bogus"
        )


def test_accumulate_range_fast_kernel_dispatches():
    task = _fallback_task()
    via_param = accumulate_range(
        task, AdaptiveSCPPolicy, start=0, stop=64, seed=9, kernel="fast"
    ).finalize()
    direct = accumulate_range_fast(
        task, AdaptiveSCPPolicy, start=0, stop=64, seed=9
    ).finalize()
    assert via_param.same_values(direct)


def test_empty_range_returns_empty_accumulator():
    task = _fallback_task()
    acc = accumulate_range_fast(task, AdaptiveSCPPolicy, start=5, stop=5)
    assert acc.reps == 0
    with pytest.raises(ParameterError):
        accumulate_range_fast(task, AdaptiveSCPPolicy, start=5, stop=4)
