"""Curated golden scenarios: one reference run per scheme × fault mix.

A :class:`GoldenScenario` pins everything one reference execution
depends on — the task, the scheme, the fault process, the seed — and
round-trips through the golden-file header, so a replay months later
re-executes *exactly* the run that was recorded, on whatever tree is
checked out then.

:data:`GOLDEN_SCENARIOS` is the committed matrix: every checkpointing
scheme, every stochastic fault process, both cost models, both static
speeds, and a faults-during-overhead variant.  Tasks use a shortened
deadline (the paper's parameters scaled down) so each trace stays a
few hundred events — enough to exercise every rollback path, small
enough to diff by eye.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.checkpoints import CostModel
from repro.core.schemes import CheckpointPolicy, scheme_factory
from repro.errors import ConfigurationError
from repro.sim.faults import (
    BurstyFaults,
    DualPoissonFaults,
    FaultProcess,
    PoissonFaults,
    ScriptedFaults,
    WeibullFaults,
)
from repro.sim.rng import RandomSource
from repro.sim.task import TaskSpec

__all__ = [
    "GoldenScenario",
    "GOLDEN_SCENARIOS",
    "scenario",
    "scenario_names",
]

@dataclass(frozen=True)
class GoldenScenario:
    """One fully-pinned reference run."""

    name: str
    scheme: str
    task: TaskSpec
    faults: FaultProcess
    seed: int
    static_frequency: float = 1.0
    faults_during_overhead: bool = False

    def __post_init__(self) -> None:
        scheme_factory(self.scheme)  # refuses an unknown scheme

    def build_policy(self) -> CheckpointPolicy:
        """A fresh policy instance (policies cache their plan): a static
        scheme at :attr:`static_frequency`, an adaptive one with the
        default :class:`~repro.core.schemes.AdaptiveConfig`."""
        return scheme_factory(self.scheme, frequency=self.static_frequency)()

    def generator(self) -> np.random.Generator:
        """The run's fault-stream generator, derived from the seed."""
        return RandomSource(self.seed).generator()

    # -- serialisation (the golden-file header) ------------------------

    def to_payload(self) -> Dict[str, object]:
        task = self.task
        costs = task.costs
        return {
            "name": self.name,
            "scheme": self.scheme,
            "seed": self.seed,
            "static_frequency": self.static_frequency,
            "faults_during_overhead": self.faults_during_overhead,
            "task": {
                "cycles": task.cycles,
                "deadline": task.deadline,
                "fault_budget": task.fault_budget,
                "fault_rate": task.fault_rate,
                "costs": {
                    "store_cycles": costs.store_cycles,
                    "compare_cycles": costs.compare_cycles,
                    "rollback_cycles": costs.rollback_cycles,
                },
            },
            "faults": _process_to_payload(self.faults),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "GoldenScenario":
        try:
            task = payload["task"]
            costs = task["costs"]
            return cls(
                name=payload["name"],
                scheme=payload["scheme"],
                seed=payload["seed"],
                static_frequency=payload["static_frequency"],
                faults_during_overhead=payload["faults_during_overhead"],
                task=TaskSpec(
                    cycles=task["cycles"],
                    deadline=task["deadline"],
                    fault_budget=task["fault_budget"],
                    fault_rate=task["fault_rate"],
                    costs=CostModel(
                        store_cycles=costs["store_cycles"],
                        compare_cycles=costs["compare_cycles"],
                        rollback_cycles=costs["rollback_cycles"],
                    ),
                ),
                faults=_process_from_payload(payload["faults"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed golden scenario: {exc!r}")


def _process_to_payload(process: FaultProcess) -> Dict[str, object]:
    if isinstance(process, PoissonFaults):
        return {"kind": "poisson", "rate": process.rate}
    if isinstance(process, DualPoissonFaults):
        return {
            "kind": "dual_poisson",
            "rate_per_processor": process.rate_per_processor,
        }
    if isinstance(process, WeibullFaults):
        return {"kind": "weibull", "shape": process.shape, "scale": process.scale}
    if isinstance(process, BurstyFaults):
        return {
            "kind": "bursty",
            "quiet_rate": process.quiet_rate,
            "burst_rate": process.burst_rate,
            "quiet_dwell": process.quiet_dwell,
            "burst_dwell": process.burst_dwell,
        }
    if isinstance(process, ScriptedFaults):
        return {"kind": "scripted", "times": list(process.times)}
    raise ConfigurationError(
        f"fault process {type(process).__name__} has no golden serialisation"
    )


def _process_from_payload(payload: Dict[str, object]) -> FaultProcess:
    try:
        kind = payload["kind"]
        if kind == "poisson":
            return PoissonFaults(payload["rate"])
        if kind == "dual_poisson":
            return DualPoissonFaults(payload["rate_per_processor"])
        if kind == "weibull":
            return WeibullFaults(shape=payload["shape"], scale=payload["scale"])
        if kind == "bursty":
            return BurstyFaults(
                quiet_rate=payload["quiet_rate"],
                burst_rate=payload["burst_rate"],
                quiet_dwell=payload["quiet_dwell"],
                burst_dwell=payload["burst_dwell"],
            )
        if kind == "scripted":
            return ScriptedFaults(payload["times"])
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed fault-process payload: {exc!r}")
    raise ConfigurationError(f"unknown fault-process kind {kind!r}")


def _task(
    u: float, lam: float, *, frequency: float, k: int, costs: CostModel,
    deadline: float = 4000.0,
) -> TaskSpec:
    """A scaled-down table task: paper parameters, shorter deadline."""
    return TaskSpec.from_utilization(
        u,
        deadline=deadline,
        frequency=frequency,
        fault_budget=k,
        fault_rate=lam,
        costs=costs,
    )


def _build_matrix() -> Tuple[GoldenScenario, ...]:
    scp = CostModel.scp_favourable()
    ccp = CostModel.ccp_favourable()
    return (
        GoldenScenario(
            name="poisson-static-f1",
            scheme="Poisson",
            task=_task(0.80, 1.4e-3, frequency=1.0, k=5, costs=scp),
            faults=PoissonFaults(1.4e-3),
            seed=200601,
        ),
        GoldenScenario(
            name="kft-static-f2",
            scheme="k-f-t",
            task=_task(0.92, 2.0e-4, frequency=2.0, k=1, costs=scp),
            faults=PoissonFaults(2.0e-4),
            seed=200602,
            static_frequency=2.0,
        ),
        GoldenScenario(
            name="adaptive-dvs-poisson",
            scheme="A_D",
            task=_task(0.78, 1.6e-3, frequency=1.0, k=5, costs=scp),
            faults=PoissonFaults(1.6e-3),
            seed=200603,
        ),
        GoldenScenario(
            name="adaptive-scp-poisson",
            scheme="A_D_S",
            task=_task(0.82, 1.4e-3, frequency=1.0, k=5, costs=scp),
            faults=PoissonFaults(1.4e-3),
            seed=200604,
        ),
        GoldenScenario(
            name="adaptive-ccp-poisson",
            scheme="A_D_C",
            task=_task(0.80, 1.6e-3, frequency=1.0, k=5, costs=ccp),
            faults=PoissonFaults(1.6e-3),
            seed=200605,
        ),
        GoldenScenario(
            name="adaptive-scp-weibull",
            scheme="A_D_S",
            task=_task(0.80, 1.4e-3, frequency=1.0, k=5, costs=scp),
            faults=WeibullFaults(shape=0.7, scale=1.0 / 1.4e-3),
            seed=200606,
        ),
        GoldenScenario(
            name="adaptive-ccp-bursty",
            scheme="A_D_C",
            task=_task(0.80, 1.4e-3, frequency=1.0, k=5, costs=ccp),
            faults=BurstyFaults(
                quiet_rate=2.0e-4,
                burst_rate=8.0e-3,
                quiet_dwell=900.0,
                burst_dwell=200.0,
            ),
            seed=200607,
        ),
        GoldenScenario(
            name="adaptive-dvs-dual-poisson",
            scheme="A_D",
            task=_task(0.78, 1.4e-3, frequency=1.0, k=5, costs=scp),
            faults=DualPoissonFaults(7.0e-4),
            seed=200608,
        ),
        GoldenScenario(
            name="static-overhead-faults",
            scheme="Poisson",
            task=_task(0.76, 2.8e-3, frequency=1.0, k=8, costs=scp),
            faults=PoissonFaults(2.8e-3),
            seed=200609,
            faults_during_overhead=True,
        ),
        GoldenScenario(
            name="adaptive-scp-scripted",
            scheme="A_D_S",
            task=_task(0.80, 1.4e-3, frequency=1.0, k=5, costs=scp),
            faults=ScriptedFaults((150.0, 151.0, 600.0, 1800.0, 3500.0)),
            seed=200610,
        ),
        # A non-zero rollback cost with overhead faults: faults inside a
        # rollback window corrupt the restored state and are carried
        # into the next attempt.
        GoldenScenario(
            name="adaptive-scp-rollback-overhead",
            scheme="A_D_S",
            task=_task(
                0.70, 2.8e-3, frequency=1.0, k=8,
                costs=CostModel(
                    store_cycles=2.0, compare_cycles=20.0, rollback_cycles=40.0
                ),
            ),
            faults=PoissonFaults(2.8e-3),
            seed=200611,
            faults_during_overhead=True,
        ),
    )


#: The committed matrix, recorded under ``tests/goldens/``.
GOLDEN_SCENARIOS: Tuple[GoldenScenario, ...] = _build_matrix()

_BY_NAME = {s.name: s for s in GOLDEN_SCENARIOS}


def scenario(name: str) -> GoldenScenario:
    """A curated scenario by name."""
    if name not in _BY_NAME:
        raise ConfigurationError(
            f"unknown golden scenario {name!r}; valid names: "
            f"{', '.join(_BY_NAME)}"
        )
    return _BY_NAME[name]


def scenario_names() -> Tuple[str, ...]:
    """The curated scenario names, in matrix order."""
    return tuple(_BY_NAME)
