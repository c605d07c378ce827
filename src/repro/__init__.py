"""repro — energy-aware adaptive checkpointing for DMR real-time systems.

A faithful, tested reproduction of *“Performance Optimization for
Energy-Aware Adaptive Checkpointing in Embedded Real-Time Systems”*
(Zhongwen Li, Hong Chen, Shui Yu — DATE 2006), including the DATE'03
``ADT_DVS`` baseline it builds on, a discrete-event DMR fault simulator,
a Monte-Carlo experiment harness that regenerates every table of the
paper's evaluation, and extensions (TMR voting, multi-speed DVS, secure
checkpointing) flagged by the paper as related/future work.

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

See ``examples/`` and ``EXPERIMENTS.md`` for the full evaluation.
"""

from repro.core.checkpoints import CheckpointKind, CostModel
from repro.core.dvs import SpeedLadder, estimated_completion_time
from repro.core.intervals import (
    checkpoint_interval,
    deadline_interval,
    k_fault_interval,
    k_fault_threshold,
    poisson_interval,
    poisson_threshold,
)
from repro.core.optimizer import SubdivisionPlan, num_ccp, num_scp
from repro.core.renewal import (
    ccp_interval_time,
    cscp_interval_time,
    scp_interval_time,
    scp_optimal_sublength,
)
from repro.core.schemes import (
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
    CheckpointPolicy,
    KFaultTolerantPolicy,
    Plan,
    PoissonArrivalPolicy,
)
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    ParameterError,
    ReproError,
    SimulationError,
)
from repro.sim.backends import (
    BACKEND_NAMES,
    DistributedBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from repro.sim.distributed import Coordinator, LocalCluster, serve_worker
from repro.sim.energy import EnergyAccount, EnergyModel
from repro.sim.executor import RunResult, SimulationLimits, simulate_run
from repro.sim.metrics import (
    MeanEstimate,
    MomentAccumulator,
    ProportionEstimate,
)
from repro.sim.faults import (
    BurstyFaults,
    DualPoissonFaults,
    FaultProcess,
    FaultStream,
    PoissonFaults,
    ScriptedFaults,
    WeibullFaults,
)
from repro.sim.montecarlo import (
    CellAccumulator,
    CellEstimate,
    estimate,
    run_many,
    run_range,
    summarize,
)
from repro.sim.parallel import DEFAULT_BLOCK_SIZE, BatchRunner, CellJob
from repro.sim.rng import RandomSource
from repro.sim.state import ExecutionState
from repro.sim.task import TaskSpec
from repro.sim.trace import Trace, TraceRecorder

# The declarative study façade (imported last: it builds on the
# experiment and simulation layers above).
from repro.api import CellRecord, ResultSet, Session, Study, StudySpec

__version__ = "1.0.0"

__all__ = [
    # core formulas
    "poisson_interval",
    "k_fault_interval",
    "deadline_interval",
    "poisson_threshold",
    "k_fault_threshold",
    "checkpoint_interval",
    "scp_interval_time",
    "ccp_interval_time",
    "cscp_interval_time",
    "scp_optimal_sublength",
    "num_scp",
    "num_ccp",
    "SubdivisionPlan",
    "estimated_completion_time",
    "SpeedLadder",
    # checkpoint & task models
    "CheckpointKind",
    "CostModel",
    "TaskSpec",
    # schemes
    "CheckpointPolicy",
    "Plan",
    "PoissonArrivalPolicy",
    "KFaultTolerantPolicy",
    "AdaptiveDVSPolicy",
    "AdaptiveSCPPolicy",
    "AdaptiveCCPPolicy",
    "AdaptiveConfig",
    # simulation
    "simulate_run",
    "RunResult",
    "SimulationLimits",
    "ExecutionState",
    "EnergyModel",
    "EnergyAccount",
    "FaultProcess",
    "FaultStream",
    "PoissonFaults",
    "DualPoissonFaults",
    "WeibullFaults",
    "BurstyFaults",
    "ScriptedFaults",
    "Trace",
    "TraceRecorder",
    "RandomSource",
    # Monte-Carlo harness
    "estimate",
    "run_many",
    "run_range",
    "summarize",
    "CellEstimate",
    "CellAccumulator",
    "MomentAccumulator",
    "MeanEstimate",
    "ProportionEstimate",
    "BatchRunner",
    "CellJob",
    "DEFAULT_BLOCK_SIZE",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "DistributedBackend",
    "BACKEND_NAMES",
    "make_backend",
    "Coordinator",
    "LocalCluster",
    "serve_worker",
    # declarative study façade
    "Session",
    "Study",
    "StudySpec",
    "ResultSet",
    "CellRecord",
    # errors
    "ReproError",
    "ParameterError",
    "InfeasibleError",
    "SimulationError",
    "ConfigurationError",
    "__version__",
]
