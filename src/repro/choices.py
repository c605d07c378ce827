"""The closed name sets the selectors accept, defined once.

Stdlib-only on purpose: the CLI parser builds its ``choices`` and help
text from these without importing numpy or the simulator.  The modules
that validate against them re-export them (``repro.sim.backends``,
``repro.sim.kernel``, ``repro.api.spec``).
"""

__all__ = ["BACKEND_NAMES", "KERNEL_NAMES", "STUDY_KINDS", "KIND_SUMMARIES"]

#: The backend names the string selector accepts (CLI ``--backend``).
BACKEND_NAMES = ("serial", "process", "distributed")

#: The kernel modes ``ExecutionSettings.kernel`` accepts.
KERNEL_NAMES = ("exact", "fast")

#: The study kinds the façade understands, each mirroring one legacy
#: experiment entrypoint (see :mod:`repro.api.spec`).
STUDY_KINDS = (
    "table",
    "row",
    "fixed_m",
    "rate_factor",
    "utilization",
    "operating_map",
    "taskset",
    "frontier",
)

#: One-line description per kind.  The single source both the CLI help
#: (``repro run --list-kinds``) and error text derive from, so a new
#: kind cannot drift out of the docs.  Keys mirror :data:`STUDY_KINDS`
#: exactly (pinned by a test).
KIND_SUMMARIES = {
    "table": "a published table's full scheme × row grid",
    "row": "one (U, lam) row of a published table",
    "fixed_m": "fixed-subdivision ablation at one task point",
    "rate_factor": "analysis-rate sensitivity at one task point",
    "utilization": "scheme comparison across a utilization grid",
    "operating_map": "best-scheme map over a (U, lam) grid",
    "taskset": "generated multi-task workloads under EDF/RM",
    "frontier": "energy/time Pareto sweep over (f, n) checkpoints",
}
