"""repro — energy-aware adaptive checkpointing for DMR real-time systems.

A faithful, tested reproduction of *“Performance Optimization for
Energy-Aware Adaptive Checkpointing in Embedded Real-Time Systems”*
(Zhongwen Li, Hong Chen, Shui Yu — DATE 2006), including the DATE'03
``ADT_DVS`` baseline it builds on, a discrete-event DMR fault simulator,
and a Monte-Carlo experiment harness that regenerates every table of
the paper's evaluation.

Quickstart::

    from repro import (
        TaskSpec, CostModel, AdaptiveSCPPolicy, PoissonFaults, estimate,
    )

    task = TaskSpec(
        cycles=7600, deadline=10_000, fault_budget=5,
        fault_rate=1.4e-3, costs=CostModel.scp_favourable(),
    )
    cell = estimate(task, AdaptiveSCPPolicy, reps=2000, seed=42)
    print(f"P = {cell.p:.4f}, E = {cell.e:.0f}")

See ``examples/``, and ``python -m repro validate`` (all eight tables)
for the full evaluation.

Every public name resolves on first access (PEP 562), so ``import
repro`` loads only the layers a caller uses: ``repro.TaskSpec`` loads
the simulator, ``repro.ReproError`` does not.
"""

from repro._lazy import lazy_surface

__version__ = "1.0.0"

#: Defining module → the public names re-exported from it: the one list
#: of this package's surface, ``__all__`` included.
_EXPORTS = {
    # core formulas
    "repro.core.intervals": (
        "poisson_interval",
        "k_fault_interval",
        "deadline_interval",
        "poisson_threshold",
        "k_fault_threshold",
        "checkpoint_interval",
    ),
    "repro.core.renewal": (
        "scp_interval_time",
        "ccp_interval_time",
        "cscp_interval_time",
        "scp_optimal_sublength",
    ),
    "repro.core.optimizer": ("num_scp", "num_ccp", "SubdivisionPlan"),
    "repro.core.dvs": ("estimated_completion_time", "SpeedLadder"),
    # checkpoint & task models
    "repro.core.checkpoints": ("CheckpointKind", "CostModel"),
    "repro.sim.task": ("TaskSpec",),
    # schemes
    "repro.core.schemes": (
        "CheckpointPolicy",
        "Plan",
        "PoissonArrivalPolicy",
        "KFaultTolerantPolicy",
        "AdaptiveDVSPolicy",
        "AdaptiveSCPPolicy",
        "AdaptiveCCPPolicy",
        "AdaptiveConfig",
    ),
    # simulation
    "repro.sim.executor": ("simulate_run", "RunResult", "SimulationLimits"),
    "repro.sim.state": ("ExecutionState",),
    "repro.sim.energy": ("EnergyModel",),
    "repro.sim.faults": (
        "FaultProcess",
        "FaultStream",
        "PoissonFaults",
        "DualPoissonFaults",
        "WeibullFaults",
        "BurstyFaults",
        "ScriptedFaults",
    ),
    "repro.sim.trace": ("Trace", "TraceRecorder"),
    "repro.sim.rng": ("RandomSource",),
    # Monte-Carlo harness
    "repro.sim.montecarlo": (
        "estimate",
        "run_range",
        "CellAccumulator",
    ),
    "repro.sim.metrics": (
        "CellEstimate",
        "MomentAccumulator",
        "MeanEstimate",
        "ProportionEstimate",
    ),
    "repro.sim.parallel": ("BatchRunner", "DEFAULT_BLOCK_SIZE"),
    "repro.sim.backends": (
        "CellJob",
        "ExecutionBackend",
        "SerialBackend",
        "ProcessBackend",
        "DistributedBackend",
    ),
    "repro.choices": ("BACKEND_NAMES",),
    "repro.sim.distributed": ("Coordinator", "LocalCluster", "serve_worker"),
    # declarative study façade
    "repro.api.session": ("Session",),
    "repro.api.study": ("Study",),
    "repro.api.spec": ("StudySpec",),
    "repro.api.results": ("ResultSet", "CellRecord"),
    # errors
    "repro.errors": (
        "ReproError",
        "ParameterError",
        "InfeasibleError",
        "SimulationError",
        "ConfigurationError",
    ),
}

__all__, __getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
__all__.append("__version__")
