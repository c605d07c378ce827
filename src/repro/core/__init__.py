"""Core algorithms of the paper: interval formulas, renewal models,
subdivision optimisers, DVS speed selection and the five checkpointing
schemes.

Each submodule is imported the first time its attribute is read."""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        __name__: (
            "analysis",
            "checkpoints",
            "dvs",
            "intervals",
            "optimizer",
            "renewal",
            "schemes",
        )
    },
)
