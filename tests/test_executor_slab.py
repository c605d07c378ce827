"""Bit-equality of the executor's entry points and the slab accumulation.

Three identities underpin the executor hot path, and each is pinned
here exactly (``repr`` equality — float-for-float, NaN-aware):

1. **recorded ≡ unrecorded** — :func:`simulate_run` runs one interval
   loop with or without a recorder; attaching one (which also feeds
   every recorder callback) must not change a single result bit.
2. **execute_once ≡ simulate_run** — the slab-facing entry point skips
   the ``cycles_by_frequency`` map and the ``RunResult``, changing
   nothing it does report.
3. **slab ≡ per-rep accumulation** — folding a block through
   :func:`accumulate_range`'s NumPy scratch equals per-rep
   ``CellAccumulator.add`` over :func:`run_range`'s results, which is
   what keeps ``CellEstimate``\\ s bit-identical across every backend.

Besides the five schemes, :data:`FACTORIES` covers what no in-repo
scheme runs: a fixed plan with interior CSCPs that is not
``plan_stable``, a task with a non-zero rollback cost, and adaptive
schemes on ladders finer than the paper's two speeds, whose replans
pick among inner levels.
"""

import threading
from functools import partial

import pytest

from repro.core.checkpoints import CheckpointKind, CostModel
from repro.core.dvs import SpeedLadder
from repro.core.schemes import (
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
    KFaultTolerantPolicy,
    PoissonArrivalPolicy,
)
from repro.errors import ParameterError
from repro.sim import montecarlo
from repro.sim.faults import BurstyFaults, PoissonFaults, WeibullFaults
from repro.sim.montecarlo import CellAccumulator, accumulate_range, run_range
from repro.sim.executor import execute_once, simulate_run
from repro.sim.rng import RandomSource
from repro.sim.task import TaskSpec
from repro.sim.trace import Trace

from tests.conftest import FixedPlanPolicy

REPS = 60


COSTS = {
    "scp": CostModel.scp_favourable(),
    "ccp": CostModel.ccp_favourable(),
    "rollback": CostModel(
        store_cycles=2.0, compare_cycles=20.0, rollback_cycles=11.0
    ),
}


def _task(costs: str = "scp") -> TaskSpec:
    return TaskSpec(
        cycles=8200.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.6e-3,
        costs=COSTS[costs],
    )


FOUR_LEVELS = AdaptiveConfig(
    ladder=SpeedLadder.from_frequencies(tuple(1.0 + i / 3 for i in range(4)))
)
THREE_LEVELS = AdaptiveConfig(
    ladder=SpeedLadder.from_frequencies((1.0, 1.25, 2.0))
)

FACTORIES = [
    ("Poisson", partial(PoissonArrivalPolicy, 1.0), "scp"),
    ("k-f-t", partial(KFaultTolerantPolicy, 1.0), "scp"),
    ("A_D", AdaptiveDVSPolicy, "scp"),
    ("A_D_S", AdaptiveSCPPolicy, "scp"),
    ("A_D_C", AdaptiveCCPPolicy, "ccp"),
    # Interior CSCPs, asked for a plan every interval, at f2.
    (
        "fixed-cscp-m4",
        partial(FixedPlanPolicy, 300.0, 4, CheckpointKind.CSCP, 2.0),
        "scp",
    ),
    ("A_D_S-rollback", AdaptiveSCPPolicy, "rollback"),
    # t_est rules f1 out at the start: runs start at the first inner
    # level, and replans move them to f1 and, in a few runs, up to 5/3
    # or f2.
    ("A_D-4level", partial(AdaptiveDVSPolicy, FOUR_LEVELS), "scp"),
    ("A_D_S-4level", partial(AdaptiveSCPPolicy, FOUR_LEVELS), "scp"),
    ("A_D_C-4level", partial(AdaptiveCCPPolicy, FOUR_LEVELS), "ccp"),
    (
        "A_D_S-3level-rollback",
        partial(AdaptiveSCPPolicy, THREE_LEVELS),
        "rollback",
    ),
]


@pytest.mark.parametrize(
    "factory,costs", [(f, c) for _, f, c in FACTORIES], ids=[n for n, _, _ in FACTORIES]
)
class TestHotPathIdentity:
    def test_traced_equals_fused(self, factory, costs):
        """Attaching a Trace recorder must not change a single result bit."""
        task = _task(costs)
        for rep in range(25):
            rng_a = RandomSource(11).substream(rep)
            rng_b = RandomSource(11).substream(rep)
            plain = simulate_run(
                task, factory(), PoissonFaults(task.fault_rate), rng=rng_a
            )
            recorded = simulate_run(
                task,
                factory(),
                PoissonFaults(task.fault_rate),
                rng=rng_b,
                recorder=Trace(),
            )
            assert repr(plain) == repr(recorded)

    def test_traced_equals_fused_with_overhead_faults(self, factory, costs):
        """The same with overhead faults; on the rollback-cost task they
        also hit rollback windows and are carried into the next attempt."""
        task = _task(costs)
        for rep in range(15):
            rng_a = RandomSource(5).substream(rep)
            rng_b = RandomSource(5).substream(rep)
            plain = simulate_run(
                task,
                factory(),
                PoissonFaults(0.01),
                rng=rng_a,
                faults_during_overhead=True,
            )
            recorded = simulate_run(
                task,
                factory(),
                PoissonFaults(0.01),
                rng=rng_b,
                faults_during_overhead=True,
                recorder=Trace(),
            )
            assert repr(plain) == repr(recorded)

    def test_execute_once_matches_simulate_run(self, factory, costs):
        task = _task(costs)
        for rep in range(25):
            rng_a = RandomSource(3).substream(rep)
            rng_b = RandomSource(3).substream(rep)
            full = simulate_run(task, factory(), PoissonFaults(task.fault_rate), rng=rng_a)
            lean = execute_once(task, factory(), PoissonFaults(task.fault_rate), rng=rng_b)
            assert lean.completed == full.completed
            assert lean.timely == full.timely
            assert repr(lean.finish_time) == repr(full.finish_time)
            assert repr(lean.energy) == repr(full.energy)
            assert lean.detected_faults == full.detected_faults
            assert lean.injected_faults == full.injected_faults
            assert lean.checkpoints == full.checkpoints
            assert lean.sub_checkpoints == full.sub_checkpoints
            assert lean.rollbacks == full.rollbacks


@pytest.mark.parametrize(
    "factory,costs", [(f, c) for _, f, c in FACTORIES], ids=[n for n, _, _ in FACTORIES]
)
def test_slab_equals_per_rep_accumulation(factory, costs):
    """accumulate_range ≡ CellAccumulator.add over run_range, bit for bit."""
    task = _task(costs)
    per_rep = CellAccumulator().add_all(
        run_range(task, factory, start=0, stop=REPS, seed=2006)
    )
    slab = accumulate_range(task, factory, start=0, stop=REPS, seed=2006)
    assert repr(slab.finalize()) == repr(per_rep.finalize())


@pytest.mark.parametrize(
    "faults",
    [
        WeibullFaults(shape=0.8, scale=700.0),
        BurstyFaults(
            quiet_rate=2e-4, burst_rate=9e-3, quiet_dwell=2500.0, burst_dwell=350.0
        ),
    ],
    ids=["weibull", "bursty"],
)
def test_slab_identity_with_alternate_fault_processes(faults):
    task = _task()
    per_rep = CellAccumulator().add_all(
        run_range(task, AdaptiveSCPPolicy, start=0, stop=40, seed=9, faults=faults)
    )
    slab = accumulate_range(
        task, AdaptiveSCPPolicy, start=0, stop=40, seed=9, faults=faults
    )
    assert repr(slab.finalize()) == repr(per_rep.finalize())


def test_slab_block_split_invariance():
    """Merging slab blocks in rep order equals one big slab block."""
    task = _task()
    whole = accumulate_range(task, AdaptiveSCPPolicy, start=0, stop=REPS, seed=4)
    left = accumulate_range(task, AdaptiveSCPPolicy, start=0, stop=23, seed=4)
    right = accumulate_range(task, AdaptiveSCPPolicy, start=23, stop=REPS, seed=4)
    assert repr(left.merge(right).finalize()) == repr(whole.finalize())


def test_slab_reuse_does_not_leak_between_blocks(monkeypatch):
    """A worker's slab is reused; stale rows must never contaminate a
    later, smaller block."""
    monkeypatch.setattr(montecarlo, "_SLAB_STORE", threading.local())
    task = _task()
    big = accumulate_range(task, AdaptiveSCPPolicy, start=0, stop=300, seed=7)
    slab = montecarlo._SLAB_STORE.slab
    assert slab.capacity == 300  # grown past the 256-row default
    folded = repr(big.finalize())
    small = accumulate_range(
        task, PoissonArrivalPolicy, start=5, stop=12, seed=7
    )
    assert montecarlo._SLAB_STORE.slab is slab  # the same rows, reused
    reference = CellAccumulator().add_all(
        run_range(task, PoissonArrivalPolicy, start=5, stop=12, seed=7)
    )
    assert small.reps == 7
    assert repr(small.finalize()) == repr(reference.finalize())
    assert repr(big.finalize()) == folded  # earlier fold untouched by reuse


def test_empty_range_yields_empty_accumulator():
    task = _task()
    accumulator = accumulate_range(task, AdaptiveSCPPolicy, start=5, stop=5, seed=0)
    assert accumulator.reps == 0


def test_rejects_bad_range():
    task = _task()
    for start, stop in [(-1, 3), (5, 3)]:
        with pytest.raises(ParameterError):
            accumulate_range(task, AdaptiveSCPPolicy, start=start, stop=stop)
