"""Simulation substrate: fault processes, the DMR executor, energy
accounting, tracing, metrics and the Monte-Carlo harness.

Each submodule is imported the first time its attribute is read."""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        __name__: (
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
        )
    },
)
