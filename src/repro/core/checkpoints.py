"""Checkpoint kinds and the checkpoint cost model.

The paper distinguishes three checkpoint operations for a double modular
redundancy (DMR) pair:

* **SCP** (store checkpoint): both processors store their state without
  comparing — cost ``t_s`` cycles.
* **CCP** (compare checkpoint): the two states are compared without
  being stored — cost ``t_cp`` cycles.
* **CSCP** (compare-and-store checkpoint): both operations together —
  cost ``c = t_s + t_cp`` cycles.

Costs are expressed in *CPU cycles at the minimum speed* ``f1 = 1`` (the
paper's normalisation).  At frequency ``f`` an operation of ``x`` cycles
takes ``x / f`` time units; :meth:`CostModel.at_frequency` performs that
conversion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, ParameterError

__all__ = ["CheckpointKind", "CostModel", "TimeCosts"]


class CheckpointKind(enum.Enum):
    """The three checkpoint operations defined by the paper."""

    SCP = "scp"
    CCP = "ccp"
    CSCP = "cscp"

    @property
    def stores(self) -> bool:
        """Whether this checkpoint writes the processor states."""
        return self in (CheckpointKind.SCP, CheckpointKind.CSCP)

    @property
    def compares(self) -> bool:
        """Whether this checkpoint compares the two processor states."""
        return self in (CheckpointKind.CCP, CheckpointKind.CSCP)


@dataclass(frozen=True)
class CostModel:
    """Checkpoint operation costs in cycles (paper notation).

    Parameters
    ----------
    store_cycles:
        ``t_s`` — time to store the states of the processors.
    compare_cycles:
        ``t_cp`` — time to compare the processors' states.
    rollback_cycles:
        ``t_r`` — time to roll the processors back to a consistent
        state.  The paper's evaluation uses ``t_r = 0``.
    """

    store_cycles: float = 2.0
    compare_cycles: float = 20.0
    rollback_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.store_cycles < 0:
            raise ParameterError(f"store_cycles must be >= 0, got {self.store_cycles}")
        if self.compare_cycles < 0:
            raise ParameterError(
                f"compare_cycles must be >= 0, got {self.compare_cycles}"
            )
        if self.rollback_cycles < 0:
            raise ParameterError(
                f"rollback_cycles must be >= 0, got {self.rollback_cycles}"
            )
        if self.store_cycles == 0 and self.compare_cycles == 0:
            raise ParameterError("store_cycles and compare_cycles cannot both be 0")

    @property
    def checkpoint_cycles(self) -> float:
        """``c`` — cycles of a full checkpoint (CSCP): ``t_s + t_cp``."""
        return self.store_cycles + self.compare_cycles

    def cycles_of(self, kind: CheckpointKind) -> float:
        """Cycle cost of one checkpoint operation of the given kind."""
        if kind is CheckpointKind.SCP:
            return self.store_cycles
        if kind is CheckpointKind.CCP:
            return self.compare_cycles
        return self.checkpoint_cycles

    def at_frequency(self, frequency: float) -> "TimeCosts":
        """Convert cycle costs to time units at the given frequency."""
        if frequency <= 0:
            raise ParameterError(f"frequency must be > 0, got {frequency}")
        return TimeCosts(
            store=self.store_cycles / frequency,
            compare=self.compare_cycles / frequency,
            rollback=self.rollback_cycles / frequency,
        )

    @classmethod
    def scp_favourable(cls) -> "CostModel":
        """Paper §4.1 parameters: cheap stores (``t_s=2, t_cp=20``)."""
        return cls(store_cycles=2.0, compare_cycles=20.0, rollback_cycles=0.0)

    @classmethod
    def ccp_favourable(cls) -> "CostModel":
        """Paper §4.2 parameters: cheap compares (``t_s=20, t_cp=2``)."""
        return cls(store_cycles=20.0, compare_cycles=2.0, rollback_cycles=0.0)

    @classmethod
    def favouring(cls, variant: str) -> "CostModel":
        """The costs of the ``'scp'`` (§4.1) or ``'ccp'`` (§4.2) tables."""
        if variant == "scp":
            return cls.scp_favourable()
        if variant == "ccp":
            return cls.ccp_favourable()
        raise ConfigurationError(f"variant must be scp or ccp: {variant!r}")


@dataclass(frozen=True)
class TimeCosts:
    """Checkpoint operation costs converted to time units at a speed."""

    store: float
    compare: float
    rollback: float

    @property
    def checkpoint(self) -> float:
        """``C = c/f`` — duration of a full CSCP at this speed."""
        return self.store + self.compare
