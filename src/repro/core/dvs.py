"""Dynamic voltage scaling: speed levels and the ``t_est`` estimator.

The paper models a processor with two speeds ``f1`` (the minimum,
normalised to 1) and ``f2 = 2·f1``, switching in negligible time.  The
speed decision compares the estimated completion time in the presence
of faults and checkpointing,

``t_est(Rc, f) = Rc·(1 + sqrt(λ·c/f)) / ( f·(1 − sqrt(λ·c/f)) )``

(from DATE'03: interval set to ``sqrt(C/λ)`` to tolerate the ``λ·t_est``
expected faults, overhead and recovery each contributing a
``sqrt(λ·c/f)`` fraction), with the remaining deadline ``Rd``: run at
``f1`` if ``t_est(Rc, f1) ≤ Rd``, otherwise at ``f2``.

:class:`SpeedLadder` generalises this to any number of levels (an
adaptive scheme takes one through
:class:`~repro.core.schemes.AdaptiveConfig`); the paper's two-level
ladder is :func:`SpeedLadder.paper_two_level`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ParameterError

__all__ = ["estimated_completion_time", "SpeedLadder"]


def estimated_completion_time(
    work_cycles: float,
    frequency: float,
    *,
    rate: float,
    checkpoint_cycles: float,
) -> float:
    """``t_est`` — estimated completion time with faults and checkpoints.

    Parameters
    ----------
    work_cycles:
        ``Rc`` — remaining task cycles.
    frequency:
        ``f`` — candidate processor speed (cycles per time unit).
    rate:
        ``λ`` — fault arrival rate (per time unit).
    checkpoint_cycles:
        ``c`` — cycles consumed by one checkpoint.

    Returns ``inf`` when ``λ·c/f ≥ 1``: the overhead-plus-recovery
    fraction then consumes the whole processor and no finite completion
    estimate exists at this speed.
    """
    if work_cycles < 0:
        raise ParameterError(f"work_cycles must be >= 0, got {work_cycles}")
    if frequency <= 0:
        raise ParameterError(f"frequency must be > 0, got {frequency}")
    if rate < 0:
        raise ParameterError(f"rate must be >= 0, got {rate}")
    if checkpoint_cycles < 0:
        raise ParameterError(
            f"checkpoint_cycles must be >= 0, got {checkpoint_cycles}"
        )
    if work_cycles == 0:
        return 0.0
    loss = math.sqrt(rate * checkpoint_cycles / frequency)
    if loss >= 1.0:
        return math.inf
    return work_cycles * (1.0 + loss) / (frequency * (1.0 - loss))


@dataclass(frozen=True)
class SpeedLadder:
    """An ordered set of processor speeds with their supply voltages.

    ``frequencies`` must be strictly increasing and start at the
    normalised minimum speed.  ``voltages`` maps 1:1 onto frequencies.
    The voltages reach the energy a run is charged only through
    :meth:`repro.sim.energy.EnergyModel.from_ladder` passed as the
    run's energy model; otherwise the run charges the paper's
    ``V(f) = sqrt(2f)`` whatever the ladder records.
    """

    frequencies: Tuple[float, ...]
    voltages: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.frequencies) < 1:
            raise ParameterError("SpeedLadder needs at least one frequency")
        if len(self.frequencies) != len(self.voltages):
            raise ParameterError("frequencies and voltages must align")
        if any(f <= 0 for f in self.frequencies):
            raise ParameterError("frequencies must be > 0")
        if any(v <= 0 for v in self.voltages):
            raise ParameterError("voltages must be > 0")
        if any(
            b <= a for a, b in zip(self.frequencies, self.frequencies[1:])
        ):
            raise ParameterError("frequencies must be strictly increasing")

    @classmethod
    def from_frequencies(
        cls, frequencies: Sequence[float], voltage_exponent: float = 0.5
    ) -> "SpeedLadder":
        """Build a ladder with ``V(f) = sqrt(2f)``-style voltage scaling.

        The default ``V(f) = sqrt(2)·f**0.5`` reproduces the paper's
        published energy magnitudes (:mod:`repro.sim.energy`);
        ``voltage_exponent=1.0`` gives the textbook linear ``V ∝ f``.
        A run charges these voltages only with
        ``energy_model=EnergyModel.from_ladder(ladder)``.
        """
        freqs = tuple(float(f) for f in frequencies)
        volts = tuple(math.sqrt(2.0) * f**voltage_exponent for f in freqs)
        return cls(frequencies=freqs, voltages=volts)

    @classmethod
    def paper_two_level(cls) -> "SpeedLadder":
        """The paper's ladder: ``f1 = 1`` and ``f2 = 2`` with calibrated
        voltages ``V = sqrt(2f)`` (energy/cycle of 2 and 4)."""
        return cls.from_frequencies((1.0, 2.0))

    @property
    def minimum(self) -> float:
        """``f1`` — the slowest (most energy-efficient) speed."""
        return self.frequencies[0]

    @property
    def maximum(self) -> float:
        """The fastest available speed."""
        return self.frequencies[-1]

    def voltage_of(self, frequency: float) -> float:
        """Supply voltage for an exact ladder frequency."""
        for f, v in zip(self.frequencies, self.voltages):
            if f == frequency:
                return v
        raise ParameterError(f"{frequency} is not a ladder frequency")

    def select_speed(
        self,
        work_cycles: float,
        deadline_left: float,
        *,
        rate: float,
        checkpoint_cycles: float,
    ) -> float:
        """Pick the slowest speed whose ``t_est`` meets the deadline.

        For the paper's two-level ladder this is exactly figs. 6/7
        line 2/15: ``f1`` if ``t_est(Rc, f1) ≤ Rd`` else ``f2``.  With
        more levels the generalisation "slowest feasible, else fastest"
        applies; when no speed is feasible the fastest is returned (the
        run is then expected to miss, which the executor detects).
        """
        if work_cycles < 0:
            raise ParameterError(f"work_cycles must be >= 0, got {work_cycles}")
        levels = _ladder_factors(self, rate, checkpoint_cycles)
        return _slowest_feasible(levels, work_cycles, deadline_left)[0]


def _slowest_feasible(levels, work_cycles: float, deadline_left: float):
    """The first of ``levels`` whose ``t_est`` meets ``deadline_left``.

    ``levels`` are :func:`_ladder_factors` rows, slowest first (extra
    trailing fields ride along); with none feasible, the last (fastest).
    Per-level factors depend only on (ladder, rate, c), so the decision
    is two float ops per level, in estimated_completion_time's exact
    operation order: work·(1+loss) / (f·(1−loss)).
    """
    for level in levels:
        if work_cycles == 0:
            t_est = 0.0
        elif level[1] is None:  # loss >= 1: no finite estimate
            t_est = math.inf
        else:
            t_est = work_cycles * level[1] / level[2]
        if t_est <= deadline_left:
            return level
    return level


#: Memo of per-level ``t_est`` factors keyed by (frequencies, rate, c);
#: bounded by periodic clearing (entries are tiny and keys few — one
#: per distinct task parameterisation).
_SPEED_FACTOR_MEMO: dict = {}


def _ladder_factors(
    ladder: "SpeedLadder", rate: float, checkpoint_cycles: float
) -> list:
    key = (ladder.frequencies, rate, checkpoint_cycles)
    entry = _SPEED_FACTOR_MEMO.get(key)
    if entry is None:
        if rate < 0:
            raise ParameterError(f"rate must be >= 0, got {rate}")
        if checkpoint_cycles < 0:
            raise ParameterError(
                f"checkpoint_cycles must be >= 0, got {checkpoint_cycles}"
            )
        entry = []
        for frequency in ladder.frequencies:
            loss = math.sqrt(rate * checkpoint_cycles / frequency)
            if loss >= 1.0:
                entry.append((frequency, None, None))
            else:
                entry.append(
                    (frequency, 1.0 + loss, frequency * (1.0 - loss))
                )
        if len(_SPEED_FACTOR_MEMO) > 1024:
            _SPEED_FACTOR_MEMO.clear()
        _SPEED_FACTOR_MEMO[key] = entry
    return entry
