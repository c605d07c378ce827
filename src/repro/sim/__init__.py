"""Simulation substrate: fault processes, the DMR executor, energy
accounting, tracing, metrics and the Monte-Carlo harness."""

from repro.sim import (
    backends,
    distributed,
    energy,
    executor,
    faults,
    metrics,
    montecarlo,
    parallel,
    rng,
    state,
    task,
    trace,
)

__all__ = [
    "backends",
    "distributed",
    "energy",
    "executor",
    "faults",
    "metrics",
    "montecarlo",
    "parallel",
    "rng",
    "state",
    "task",
    "trace",
]
