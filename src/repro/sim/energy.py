"""Energy accounting for the DMR pair under DVS.

The paper measures energy "by summing the product of the square of the
voltage and the number of computation cycles over all the segments of
the task".  Both processors of the DMR pair execute every cycle, so the
system energy is

``E = n_processors · Σ_segments V(f_segment)² · cycles_segment``.

The paper never states the absolute voltage of ``f1``; calibrating
against the published tables fixes ``V(f) = sqrt(2·f)`` (energy per
cycle per processor ``2f``: 2 at ``f1 = 1``, 4 at ``f2 = 2``, hence the
tables' system totals of ``4·cycles`` and ``8·cycles``; the published
energies are in :mod:`repro.experiments.paper_data`).  A linear
``V(f) = f`` map is available for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.dvs import SpeedLadder
from repro.errors import ParameterError

__all__ = ["EnergyModel"]


@dataclass(frozen=True)
class EnergyModel:
    """Maps (frequency, cycles) segments to energy.

    Parameters
    ----------
    voltage_of:
        ``V(f)`` — supply voltage at frequency ``f``.
    n_processors:
        Number of processors executing each cycle (2 for DMR).
    """

    voltage_of: Callable[[float], float]
    n_processors: int = 2

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ParameterError(
                f"n_processors must be >= 1, got {self.n_processors}"
            )

    def segment_energy(self, frequency: float, cycles: float) -> float:
        """Energy of executing ``cycles`` cycles at ``frequency``."""
        if cycles < 0:
            raise ParameterError(f"cycles must be >= 0, got {cycles}")
        voltage = self.voltage_of(frequency)
        return self.n_processors * voltage * voltage * cycles

    @classmethod
    def paper_dmr(cls) -> "EnergyModel":
        """The calibrated paper model: DMR pair, ``V(f) = sqrt(2f)``."""
        return cls(voltage_of=lambda f: (2.0 * f) ** 0.5, n_processors=2)

    @classmethod
    def linear_voltage(cls, n_processors: int = 2) -> "EnergyModel":
        """Textbook ``V(f) = f`` scaling (energy per cycle ``f²``)."""
        return cls(voltage_of=lambda f: f, n_processors=n_processors)

    @classmethod
    def from_ladder(cls, ladder: SpeedLadder, n_processors: int = 2) -> "EnergyModel":
        """Use the voltages recorded on a :class:`SpeedLadder`."""
        return cls(voltage_of=ladder.voltage_of, n_processors=n_processors)
